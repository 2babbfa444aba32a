//! The traced run: per-layer metrics, timed from outside each layer by
//! wrapping the benchmark's calls into that layer's public functions.
//!
//! Each workload runs twice with the same inputs, each time on a fresh
//! stack: first with the server's tracing off, as in the end-to-end
//! runs, then with it on (`ServerConfig::with_tracing(true)`: trace ids,
//! spans and the flight recorder). The difference of their median
//! latencies is reported as `<workload>.trace_overhead_pct`. From the
//! traced phase the benchmark also keeps a span per layer boundary of
//! every request, built after the phase from the clock reads its drivers
//! take in both phases, and writes them out at the end as JSON lines
//! under `perfbench/out/`. The share of each request's latency that no
//! span covers is reported as `<workload>.unattributed_pct`.
//!
//! After the live phase each workload's served work is replayed through
//! the layer calls themselves, and every replay must reproduce the
//! served answers bit for bit:
//!
//! * `sampled_zipf`: the observed micro-batches, through sampling,
//!   merging, gathering, `Â·X`, the circulant combination and the
//!   accelerator charge (`gnn.*`, `nn.*`, `accel.*`).
//! * `fullgraph_updates`: every cold read on a mirror engine that
//!   applied the same deltas (`engine.full_pass_ms`), and the four
//!   G-GCN stages over all rows (`gnn.stage*_ms`).
//! * `wire_cached`: the protocol parse, encode and decode of the
//!   workload's own lines (`server.protocol.*`).
//!
//! Each per-layer metric comes from the workload whose serving path
//! runs that layer, so a traced run always covers these three workloads,
//! whichever `--workload` is named (see [`Workload::TRACED`]).

use crate::drive::{same_bits, Sent, Tally};
use crate::report::Report;
use crate::stats::Samples;
use crate::workloads::{
    sampled_open_loop, sampled_pool, server_config, update_cycles, warm_wire, wire_reads,
    Cycle, Slice, Stack, WireRead, Workload, BLOCK, FANOUTS, HIDDEN, MODEL_SEED, WARMUP,
};
use blockgnn_accel::SimReport;
use blockgnn_engine::{
    ExecutionBackend, InferRequest, RequestMode, RequestShape, SimulatedAccelBackend,
};
use blockgnn_gnn::batch::MergedUniverse;
use blockgnn_gnn::models::Gcn;
use blockgnn_gnn::sampled::SampledSubgraph;
use blockgnn_gnn::{
    build_model_with_policy, CompressionPolicy, GnnModel, ModelKind, NormalizedAdjacency,
};
use blockgnn_graph::{CsrGraph, Dataset};
use blockgnn_linalg::Matrix;
use blockgnn_nn::{Compression, ExecMode, Layer, LinearLayer, Relu};
use blockgnn_perf::{CirCoreParams, HardwareCoeffs};
use blockgnn_server::protocol::{
    encode_infer, encode_response, parse_command, parse_response, Command,
};
use blockgnn_server::{SubmitOptions, DEFAULT_TENANT};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Wire requests whose lines the protocol replay parses, encodes and decodes.
const PROTOCOL_REPLAYS: usize = 2000;

fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// Runs the traced pass of every workload and reports the per-layer metrics.
pub fn run(seed: u64, seconds: f64) -> Report {
    let mut report = Report::default();
    // Two live phases (untraced, traced) per workload share the run.
    let span = Duration::from_secs_f64(seconds / 6.0);
    sampled_zipf(seed, span, &mut report);
    fullgraph_updates(seed, span, &mut report);
    wire_cached(seed, span, &mut report);
    report
}

/// In-memory spans of one traced phase.
struct SpanLog {
    workload: &'static str,
    lines: String,
}

impl SpanLog {
    fn new(workload: Workload) -> Self {
        Self { workload: workload.name(), lines: String::new() }
    }

    /// One span of request `req`, offsets from the start of the phase.
    fn span(
        &mut self,
        req: usize,
        name: &str,
        parent: Option<&str>,
        start: Duration,
        len: Duration,
    ) {
        let _ = writeln!(
            self.lines,
            "{{\"req\": {req}, \"span\": \"{name}\", \"parent\": {}, \"start_us\": {:.3}, \
             \"end_us\": {:.3}}}",
            parent.map_or("null".to_string(), |p| format!("\"{p}\"")),
            start.as_secs_f64() * 1e6,
            (start + len).as_secs_f64() * 1e6,
        );
    }

    /// Writes the spans to `perfbench/out/trace-<workload>-seed<seed>.jsonl`.
    fn write(&self, seed: u64) {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let path = dir.join(format!("trace-{}-seed{seed}.jsonl", self.workload));
        match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, &self.lines)) {
            Ok(()) => println!("  spans written to {}", path.display()),
            Err(e) => println!("  spans not written ({e})"),
        }
    }
}

/// Runs `phase` on a fresh stack whose server has tracing off, then on a
/// fresh stack with tracing on; returns both results and the traced stack.
fn untraced_then_traced<T>(
    workload: Workload,
    seed: u64,
    mut phase: impl FnMut(&mut Stack) -> T,
) -> (T, T, Stack) {
    let untraced = phase(&mut Stack::start(workload, seed));
    let mut stack = Stack::start_with(workload, seed, server_config().with_tracing(true));
    let traced = phase(&mut stack);
    (untraced, traced, stack)
}

/// Reports the median-latency change of the traced phase.
fn overhead(report: &mut Report, workload: Workload, untraced: &Samples, traced: &Samples) {
    let pct = (traced.median() / untraced.median() - 1.0) * 100.0;
    report.metric(
        format!("{}.trace_overhead_pct", workload.name()),
        "%",
        pct,
        &format!(
            "(p50 {:.4} ms traced vs {:.4} ms untraced)",
            traced.median(),
            untraced.median()
        ),
    );
}

/// Reports the share of `total` latency that no span covers.
fn unattributed(report: &mut Report, workload: Workload, total: f64, attributed: f64) {
    report.metric(
        format!("{}.unattributed_pct", workload.name()),
        "%",
        (total - attributed) / total * 100.0,
        "(of summed request latency)",
    );
}

fn sampled_zipf(seed: u64, span: Duration, report: &mut Report) {
    let workload = Workload::SampledZipf;
    println!("traced {}", workload.name());
    let ((untraced, ..), (sent, deduped, completed), stack) =
        untraced_then_traced(workload, seed, |stack| {
            let pool = sampled_pool(stack);
            sampled_open_loop(stack, &pool, WARMUP, 0x3A3A);
            let before = stack.handle().stats();
            let sent = sampled_open_loop(stack, &pool, span, 0);
            let after = stack.handle().stats();
            (sent, after.deduped - before.deduped, after.completed - before.completed)
        });
    let pool = sampled_pool(&stack);
    let slice = |sent: &[Sent]| {
        Slice::of(sent.iter().map(|s| (s.latency, &s.outcome)), workload.limit(), span)
    };
    report.phase("traced open loop", slice(&sent).tally);
    overhead(report, workload, &slice(&untraced).latency, &slice(&sent).latency);

    let mut log = SpanLog::new(workload);
    let (mut submit, mut queue, mut compute, mut batch) =
        (Samples::new(), Samples::new(), Samples::new(), Samples::new());
    let (mut total, mut attributed) = (0.0, 0.0);
    for (i, s) in sent.iter().enumerate() {
        let Ok(r) = &s.outcome else { continue };
        let submitted = s.due + s.late;
        let queued = submitted + s.submit;
        log.span(i, "request", None, s.due, s.latency);
        log.span(i, "gen.late", Some("request"), s.due, s.late);
        log.span(i, "server.submit", Some("request"), submitted, s.submit);
        log.span(i, "server.queue", Some("request"), queued, r.queue_time);
        log.span(i, "server.compute", Some("request"), queued + r.queue_time, r.compute_time);
        submit.push_us(s.submit);
        queue.push_ms(r.queue_time);
        compute.push_ms(r.compute_time);
        batch.push(r.batch_size as f64);
        total += s.latency.as_secs_f64();
        attributed += (s.late + s.submit + r.queue_time + r.compute_time).as_secs_f64();
    }
    report.sample_median("server.submit_us", "us", &submit);
    report.sample_median("server.queue_wait_ms", "ms", &queue);
    report.sample_median("server.compute_ms", "ms", &compute);
    report.metric("server.batch_size", "requests", batch.mean(), "(mean per request)");
    report.metric(
        "server.dedup_ratio",
        "ratio",
        deduped as f64 / completed.max(1) as f64,
        &format!("({deduped} deduped of {completed})"),
    );
    unattributed(report, workload, total, attributed);
    log.write(seed);

    let mut gcn = GcnLayers::new(&stack.dataset, MODEL_SEED);
    let mut times = LayerTimes::default();
    let mut replayed = 0;
    let budget = Instant::now();
    for members in observed_batches(&sent) {
        if budget.elapsed() > span {
            break;
        }
        let requests: Vec<&InferRequest> =
            members.iter().map(|&i| &pool[sent[i].pick]).collect();
        let answers = gcn.replay(&stack.dataset, &requests, &mut times);
        for (&i, (logits, sim)) in members.iter().zip(answers) {
            let served = sent[i].outcome.as_ref().expect("batches hold served requests");
            if !same_bits(&logits, &served.logits) || sim != served.sim {
                report
                    .mismatch(format!("replayed request {} differs from its served answer", i));
            }
        }
        replayed += members.len();
    }
    println!("  replayed {replayed} served requests layer by layer");
    times.report(report);
    report.metric(
        "accel.modeled_cycles_per_node",
        "cycles",
        gcn.cycles_per_node(&stack.dataset, &pool),
        &format!("(mean over the {} pooled requests)", pool.len()),
    );
}

/// Groups the served requests of an open-loop phase into the
/// micro-batches that answered them: a batch takes consecutive queue
/// entries, and its members share one compute time and batch size.
fn observed_batches(sent: &[Sent]) -> Vec<Vec<usize>> {
    let mut batches: Vec<Vec<usize>> = Vec::new();
    let mut key = None;
    for (i, s) in sent.iter().enumerate() {
        let Ok(r) = &s.outcome else { continue };
        let k = (r.compute_time, r.batch_size);
        match batches.last_mut() {
            Some(last) if key == Some(k) && last.len() < r.batch_size => last.push(i),
            _ => batches.push(vec![i]),
        }
        key = Some(k);
    }
    batches
}

/// Per-call times of the layer replay.
#[derive(Default)]
struct LayerTimes {
    sample: Samples,
    merge: Samples,
    gather: Samples,
    rows: Samples,
    aggregate: [Samples; 2],
    combine: [Samples; 2],
    charge: Samples,
}

impl LayerTimes {
    fn report(&self, report: &mut Report) {
        report.sample_median("gnn.sample_us", "us", &self.sample);
        report.sample_median("gnn.merge_us", "us", &self.merge);
        report.sample_median("gnn.gather_us", "us", &self.gather);
        report.metric("gnn.universe_rows", "rows", self.rows.mean(), "(mean R per batch)");
        report.sample_median("gnn.aggregate_l1_us", "us", &self.aggregate[0]);
        report.sample_median("gnn.aggregate_l2_us", "us", &self.aggregate[1]);
        report.sample_median("nn.combine_l1_us", "us", &self.combine[0]);
        report.sample_median("nn.combine_l2_us", "us", &self.combine[1]);
        report.sample_median("accel.charge_us", "us", &self.charge);
    }
}

/// The served GCN taken apart: its two spectral-prepared combination
/// layers and an accelerator model to charge requests with, built from
/// the same seed as the served engine and so holding the same weights.
struct GcnLayers {
    lin: [LinearLayer; 2],
    accel: SimulatedAccelBackend,
}

impl GcnLayers {
    fn new(dataset: &Dataset, seed: u64) -> Self {
        let build = || {
            Gcn::new(
                dataset.feature_dim(),
                HIDDEN,
                dataset.num_classes,
                Compression::BlockCirculant { block_size: BLOCK },
                seed,
            )
            .expect("benchmark GCN configuration is valid")
        };
        let mut gcn = build();
        gcn.prepare(ExecMode::Spectral);
        let (l1, l2) = gcn.combiner_layers();
        let lin = [l1.clone(), l2.clone()];
        let mut model = build();
        let mut block = 1;
        model.visit_linear_layers(&mut |layer| {
            if let LinearLayer::Circulant(c) = layer {
                block = block.max(c.block_size());
            }
        });
        let accel = SimulatedAccelBackend::new(
            Box::new(model),
            CirCoreParams::base(),
            HardwareCoeffs::zc706(),
            HIDDEN,
            block,
        )
        .expect("the benchmark GCN fits the weight buffer");
        Self { lin, accel }
    }

    /// Replays one coalesced batch layer by layer, the way
    /// `Engine::infer_coalesced` serves it: duplicates share one
    /// execution, one unique request runs on its own subgraph, several
    /// run on their merged universe. Returns each request's logits and
    /// hardware report.
    fn replay(
        &mut self,
        dataset: &Dataset,
        batch: &[&InferRequest],
        t: &mut LayerTimes,
    ) -> Vec<(Matrix, Option<SimReport>)> {
        let mut leaders: HashMap<&InferRequest, usize> = HashMap::new();
        let mut unique: Vec<&InferRequest> = Vec::new();
        let slots: Vec<usize> = batch
            .iter()
            .map(|&r| {
                *leaders.entry(r).or_insert_with(|| {
                    unique.push(r);
                    unique.len() - 1
                })
            })
            .collect();
        let subs: Vec<SampledSubgraph> = unique
            .iter()
            .map(|r| {
                let RequestMode::Sampled { s1, s2, seed } = r.mode else {
                    panic!("the sampled workload sends sampled requests only")
                };
                let (sub, d) =
                    timed(|| SampledSubgraph::build(&dataset.graph, &r.nodes, s1, s2, seed));
                t.sample.push_us(d);
                sub
            })
            .collect();
        let merged = (subs.len() > 1).then(|| {
            let refs: Vec<&SampledSubgraph> = subs.iter().collect();
            let (merged, d) = timed(|| MergedUniverse::build(&refs));
            t.merge.push_us(d);
            merged
        });
        let (graph, (x, d)): (&CsrGraph, _) = match &merged {
            Some(m) => (&m.graph, timed(|| m.gather_features(&dataset.features))),
            None => (&subs[0].graph, timed(|| subs[0].gather_features(&dataset.features))),
        };
        t.gather.push_us(d);
        t.rows.push(graph.num_nodes() as f64);
        let out = self.forward(graph, &x, t);

        let answers: Vec<(Matrix, Option<SimReport>)> = unique
            .iter()
            .zip(&subs)
            .enumerate()
            .map(|(block, (r, sub))| {
                let logits = match &merged {
                    Some(m) => m.scatter(&out, block, sub, &r.nodes),
                    None => Matrix::from_fn(r.nodes.len(), out.cols(), |i, j| {
                        out[(sub.local_of(r.nodes[i]).expect("targets are interned"), j)]
                    }),
                };
                let (charge, d) = timed(|| self.charge(dataset, sub, out.cols(), r));
                t.charge.push_us(d);
                (logits, charge)
            })
            .collect();
        slots.iter().map(|&u| answers[u].clone()).collect()
    }

    /// `W₂·Â·ReLU(W₁·Â·X)`, one timed call per layer.
    fn forward(&mut self, graph: &CsrGraph, x: &Matrix, t: &mut LayerTimes) -> Matrix {
        let ((adj, a1), d) = timed(|| {
            let adj = NormalizedAdjacency::new(graph);
            let a1 = adj.apply(graph, x);
            (adj, a1)
        });
        t.aggregate[0].push_us(d);
        let (h1, d) = timed(|| self.lin[0].forward(&a1, false));
        t.combine[0].push_us(d);
        let h1 = Relu::new().apply(&h1);
        let (a2, d) = timed(|| adj.apply(graph, &h1));
        t.aggregate[1].push_us(d);
        let (out, d) = timed(|| self.lin[1].forward(&a2, false));
        t.combine[1].push_us(d);
        out
    }

    fn charge(
        &self,
        dataset: &Dataset,
        sub: &SampledSubgraph,
        classes: usize,
        request: &InferRequest,
    ) -> Option<SimReport> {
        let fanouts = match request.mode {
            RequestMode::Sampled { s1, s2, .. } => (s1, s2),
            RequestMode::FullGraph => FANOUTS,
        };
        let shape = RequestShape { target_nodes: sub.batch_len, fanouts };
        self.accel
            .charge(sub.graph.num_arcs(), dataset.feature_dim(), classes, shape)
            .map(|c| c.0)
    }

    /// Mean modeled cycles per target node over `pool` (Eq. 3–7). A
    /// pure function of the seed: it does not depend on timing.
    fn cycles_per_node(&self, dataset: &Dataset, pool: &[InferRequest]) -> f64 {
        let mut per_node = Samples::new();
        for r in pool {
            let RequestMode::Sampled { s1, s2, seed } = r.mode else { continue };
            let sub = SampledSubgraph::build(&dataset.graph, &r.nodes, s1, s2, seed);
            let sim =
                self.charge(dataset, &sub, dataset.num_classes, r).expect("accel charges");
            per_node.push(sim.total_cycles as f64 / sim.num_nodes as f64);
        }
        per_node.mean()
    }
}

fn fullgraph_updates(seed: u64, span: Duration, report: &mut Report) {
    let workload = Workload::FullgraphUpdates;
    println!("traced {}", workload.name());
    let ((_, untraced), (warm, cycles), stack) =
        untraced_then_traced(workload, seed, |stack| {
            let mut draw = stack.draw(5);
            let (warm, _) = update_cycles(stack, &mut draw, WARMUP);
            (warm, update_cycles(stack, &mut draw, span).0)
        });
    let slice = |cycles: &[Cycle]| {
        let reads = cycles.iter().flat_map(|c| &c.reads);
        Slice::of(reads.map(|r| (r.latency, &r.outcome)), workload.limit(), span)
    };
    let tally = slice(&cycles).tally;
    report.phase("traced closed loop", tally);
    overhead(report, workload, &slice(&untraced).latency, &slice(&cycles).latency);

    let mut log = SpanLog::new(workload);
    let (mut update, mut hits) = (Samples::new(), 0usize);
    let (mut total, mut attributed) = (0.0, 0.0);
    let mut req = 0;
    for c in &cycles {
        log.span(req, "engine.apply_delta", None, c.at, c.update);
        update.push_us(c.update);
        req += 1;
        for read in &c.reads {
            let Ok(r) = &read.outcome else { continue };
            let queued = read.at + read.submit;
            log.span(req, "request", None, read.at, read.latency);
            log.span(req, "server.submit", Some("request"), read.at, read.submit);
            log.span(req, "server.queue", Some("request"), queued, r.queue_time);
            log.span(
                req,
                "server.compute",
                Some("request"),
                queued + r.queue_time,
                r.compute_time,
            );
            hits += usize::from(r.from_cache);
            total += read.latency.as_secs_f64();
            attributed += (read.submit + r.queue_time + r.compute_time).as_secs_f64();
            req += 1;
        }
    }
    report.metric(
        "engine.cache_hit_ratio",
        "ratio",
        hits as f64 / tally.ok.max(1) as f64,
        &format!("({hits} of {} reads)", tally.ok),
    );
    report.sample_median("engine.apply_delta_us", "us", &update);
    unattributed(report, workload, total, attributed);
    log.write(seed);

    // Replay each cold read on a mirror engine at the same version, and
    // the G-GCN stages over all rows of that version.
    let mut mirror = stack.mirror();
    for c in &warm {
        mirror.apply_delta(&c.delta).expect("the served deltas apply to the mirror");
    }
    let dataset = stack.dataset.as_ref();
    let mut ggcn = build_model_with_policy(
        ModelKind::Ggcn,
        dataset.feature_dim(),
        HIDDEN,
        dataset.num_classes,
        CompressionPolicy::uniform(Compression::BlockCirculant { block_size: BLOCK }),
        MODEL_SEED,
    )
    .expect("benchmark G-GCN configuration is valid");
    ggcn.prepare(ExecMode::Spectral);
    let mut full_pass = Samples::new();
    let mut stages: Vec<Samples> = vec![Samples::new(); ggcn.num_stages()];
    let budget = Instant::now();
    for c in &cycles {
        if budget.elapsed() > span {
            break;
        }
        mirror.apply_delta(&c.delta).expect("the served deltas apply to the mirror");
        let cold = &c.reads[0];
        let (answer, d) = timed(|| mirror.session().infer(&cold.request));
        full_pass.push_ms(d);
        if !matches!((&answer, &cold.outcome), (Ok(a), Ok(s)) if same_bits(&a.logits, &s.logits))
        {
            report.mismatch("mirror cold read differs from the served one");
        }
        let logits = staged_forward(ggcn.as_mut(), &mirror.dataset(), &mut stages);
        let full = mirror.session().infer(&InferRequest::all_nodes()).expect("full read");
        if !same_bits(&logits, &full.logits) {
            report.mismatch("chained G-GCN stages differ from the full pass");
        }
    }
    report.sample_median("engine.full_pass_ms", "ms", &full_pass);
    for (s, samples) in stages.iter().enumerate() {
        report.sample_median(&format!("gnn.stage{s}_ms"), "ms", samples);
    }
}

/// Chains every stage of `model` over all rows of `dataset`, timing each.
fn staged_forward(
    model: &mut dyn GnnModel,
    dataset: &Dataset,
    times: &mut [Samples],
) -> Matrix {
    let rows: Vec<u32> = (0..dataset.num_nodes() as u32).collect();
    model.prepare_graph(&dataset.graph);
    let mut current = dataset.features.clone();
    for (stage, samples) in times.iter_mut().enumerate().take(model.num_stages()) {
        let (next, d) = timed(|| model.forward_stage(stage, &dataset.graph, &current, &rows));
        samples.push_ms(d);
        current = next;
    }
    current
}

fn wire_cached(seed: u64, span: Duration, report: &mut Report) {
    let workload = Workload::WireCached;
    println!("traced {}", workload.name());
    let (untraced, reads, stack) = untraced_then_traced(workload, seed, |stack| {
        warm_wire(stack);
        wire_reads(stack, 0x77, WARMUP);
        wire_reads(stack, 0x10, span).0
    });
    let slice = |reads: &[WireRead]| {
        Slice::of(reads.iter().map(|r| (r.latency, &r.outcome)), workload.limit(), span)
    };
    let tally = slice(&reads).tally;
    report.phase("traced closed loop", tally);
    overhead(report, workload, &slice(&untraced).latency, &slice(&reads).latency);

    let mut log = SpanLog::new(workload);
    let mut wire = Samples::new();
    let (mut total, mut served) = (0.0, 0.0);
    for (i, read) in reads.iter().enumerate() {
        let Ok(r) = &read.outcome else { continue };
        // The server's share sits between the two wire legs, which are
        // assumed equal.
        let outside = read.latency.saturating_sub(r.latency);
        log.span(i, "request", None, read.at, read.latency);
        log.span(i, "server.queue", Some("request"), read.at + outside / 2, r.queue_time);
        log.span(
            i,
            "server.compute",
            Some("request"),
            read.at + outside / 2 + r.queue_time,
            r.compute_time,
        );
        wire.push_us(outside);
        total += read.latency.as_secs_f64();
        served += r.latency.as_secs_f64();
    }
    report.sample_median("server.wire_us", "us", &wire);
    log.write(seed);

    // The protocol layer on this workload's exact lines.
    let mut mirror = stack.mirror();
    let mut session = mirror.session();
    let (mut parse, mut encode, mut decode) = (Samples::new(), Samples::new(), Samples::new());
    let mut checked = Tally::default();
    for read in reads.iter().filter(|r| r.outcome.is_ok()).take(PROTOCOL_REPLAYS) {
        let remote = read.outcome.as_ref().expect("filtered to ok");
        let line = encode_infer(&read.request, SubmitOptions::default(), None);
        let (command, d) = timed(|| parse_command(&line));
        parse.push_us(d);
        let solo = session.infer(&read.request).map_err(Into::into);
        checked.record(&solo);
        let Ok(solo) = solo else { continue };
        let (reply, d) = timed(|| encode_response(&solo, DEFAULT_TENANT));
        encode.push_us(d);
        let (decoded, d) = timed(|| parse_response(&reply));
        decode.push_us(d);
        let parsed_back =
            matches!(&command, Ok(Command::Infer(r, _, None)) if *r == read.request);
        if !parsed_back || !matches!(&decoded, Ok(x) if same_bits(&x.logits, &remote.logits)) {
            report.mismatch("protocol round trip differs from the wire answer");
        }
    }
    report.phase("protocol replay", checked);
    report.sample_median("server.protocol.parse_us", "us", &parse);
    report.sample_median("server.protocol.encode_us", "us", &encode);
    report.sample_median("server.protocol.decode_us", "us", &decode);
    let protocol_s = (parse.median() + encode.median() + decode.median()) * 1e-6;
    unattributed(report, workload, total, served + protocol_s * tally.ok as f64);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::build_engine;
    use std::sync::Arc;

    #[test]
    fn gcn_replay_is_bit_identical_to_infer_coalesced() {
        let seed = 9;
        let dataset = Arc::new(Workload::SampledZipf.dataset(seed));
        let mut engine = build_engine(Workload::SampledZipf, Arc::clone(&dataset), seed);
        let mut layers = GcnLayers::new(&dataset, seed);
        let a = InferRequest::sampled(vec![3, 3, 141], FANOUTS.0, FANOUTS.1, 1);
        let b = InferRequest::sampled(vec![59], FANOUTS.0, FANOUTS.1, 2);
        let c = InferRequest::sampled(vec![0, 600, 7], FANOUTS.0, FANOUTS.1, 3);
        let batches: [Vec<&InferRequest>; 3] = [vec![&a], vec![&b, &b], vec![&a, &b, &a, &c]];
        for batch in batches {
            let owned: Vec<InferRequest> = batch.iter().map(|&r| r.clone()).collect();
            let served = engine.infer_coalesced(&owned);
            let replayed = layers.replay(&dataset, &batch, &mut LayerTimes::default());
            assert_eq!(served.outcomes.len(), replayed.len());
            for (s, (logits, sim)) in served.outcomes.iter().zip(&replayed) {
                let s = s.as_ref().expect("valid request");
                assert!(same_bits(&s.logits, logits), "logits differ");
                assert_eq!(&s.sim, sim, "hardware reports differ");
            }
        }
    }

    #[test]
    fn ggcn_stage_chain_is_bit_identical_to_the_full_pass() {
        let seed = 4;
        let dataset = Arc::new(Workload::FullgraphUpdates.dataset(seed));
        let mut engine = build_engine(Workload::FullgraphUpdates, Arc::clone(&dataset), seed);
        let full = engine.session().infer(&InferRequest::all_nodes()).expect("full pass");
        let mut model = build_model_with_policy(
            ModelKind::Ggcn,
            dataset.feature_dim(),
            HIDDEN,
            dataset.num_classes,
            CompressionPolicy::uniform(Compression::BlockCirculant { block_size: BLOCK }),
            seed,
        )
        .expect("valid model");
        model.prepare(ExecMode::Spectral);
        let mut times = vec![Samples::new(); model.num_stages()];
        let chained = staged_forward(model.as_mut(), &dataset, &mut times);
        assert_eq!(model.num_stages(), 4);
        assert!(same_bits(&chained, &full.logits));
        assert!(times.iter().all(|t| t.len() == 1));
    }

    #[test]
    fn modeled_cycles_repeat_exactly_per_seed() {
        let stack_free = |seed| {
            let dataset = Workload::SampledZipf.dataset(seed);
            let mut draw = crate::drive::Draw::new(seed, dataset.num_nodes());
            let pool: Vec<InferRequest> = (0..32).map(|_| draw.sampled_read(FANOUTS)).collect();
            GcnLayers::new(&dataset, seed).cycles_per_node(&dataset, &pool)
        };
        let a = stack_free(5);
        assert!(a > 0.0);
        assert_eq!(a.to_bits(), stack_free(5).to_bits());
    }

    #[test]
    fn batches_follow_shared_compute_time_and_size() {
        use blockgnn_engine::InferResponse;
        let response = |compute_us: u64, batch_size: usize| InferResponse {
            logits: Matrix::zeros(1, 1),
            predictions: vec![0],
            latency: Duration::ZERO,
            queue_time: Duration::ZERO,
            compute_time: Duration::from_micros(compute_us),
            sim: None,
            energy_joules: None,
            from_cache: false,
            parts: 1,
            batch_size,
            graph_version: 0,
            trace_id: 0,
            hot_rows: 0,
        };
        let sent = |r| Sent {
            pick: 0,
            due: Duration::ZERO,
            late: Duration::ZERO,
            submit: Duration::ZERO,
            latency: Duration::ZERO,
            outcome: Ok(r),
        };
        let phase = vec![
            sent(response(5, 2)),
            sent(response(5, 2)),
            sent(response(5, 2)),
            sent(response(7, 1)),
            sent(response(9, 2)),
            sent(response(9, 2)),
        ];
        assert_eq!(observed_batches(&phase), vec![vec![0, 1], vec![2], vec![3], vec![4, 5]]);
    }
}
