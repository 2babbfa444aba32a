//! Load drivers and seeded input generators.
//!
//! The open-loop driver submits on a precomputed Poisson schedule and
//! times every request from the moment it was *due*, so a stall in the
//! server (or in the generator itself) shows up as latency of the
//! requests it delayed instead of silently thinning the load. The
//! window driver keeps a fixed number of requests in flight from one
//! thread, which measures how many completions per second the server
//! sustains.

use blockgnn_engine::{GraphDelta, InferRequest, InferResponse};
use blockgnn_graph::generate::Rng64;
use blockgnn_linalg::Matrix;
use blockgnn_server::workload::Zipf;
use blockgnn_server::{ServerError, ServerHandle, SubmitOptions, Ticket};
use std::collections::VecDeque;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Zipf exponent of node popularity and of request-pool popularity: the
/// exponent of the repository's own traffic model (`WorkloadSpec::new`
/// in `blockgnn_server::workload`).
pub const ZIPF_EXPONENT: f64 = 1.0;

/// Requests sent and how each ended.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub sent: usize,
    pub ok: usize,
    pub failed: usize,
    pub shed: usize,
}

impl Tally {
    /// Counts one finished request.
    pub fn record<T>(&mut self, outcome: &Result<T, ServerError>) {
        self.sent += 1;
        match outcome {
            Ok(_) => self.ok += 1,
            Err(e) if is_shed(e) => self.shed += 1,
            Err(_) => self.failed += 1,
        }
    }

    pub fn add(&mut self, other: Tally) {
        self.sent += other.sent;
        self.ok += other.ok;
        self.failed += other.failed;
        self.shed += other.shed;
    }
}

/// Whether the server refused the request for load rather than failing it.
fn is_shed(e: &ServerError) -> bool {
    matches!(e, ServerError::Overloaded { .. } | ServerError::DeadlineExceeded { .. })
}

/// Seeded draws of zipfian node ids, edge deltas and requests.
pub struct Draw {
    rng: Rng64,
    nodes: Zipf,
    num_nodes: usize,
}

impl Draw {
    pub fn new(seed: u64, num_nodes: usize) -> Self {
        Self { rng: Rng64::new(seed), nodes: Zipf::new(num_nodes, ZIPF_EXPONENT), num_nodes }
    }

    pub fn rng(&mut self) -> &mut Rng64 {
        &mut self.rng
    }

    /// One to three zipfian node ids.
    pub fn nodes(&mut self) -> Vec<usize> {
        let count = 1 + self.rng.next_below(3);
        (0..count).map(|_| self.nodes.sample(&mut self.rng)).collect()
    }

    /// A full-graph read of one to three zipfian nodes.
    pub fn full_read(&mut self) -> InferRequest {
        InferRequest::full_graph(self.nodes())
    }

    /// A sampled read of one to three zipfian nodes with its own
    /// sampling seed.
    pub fn sampled_read(&mut self, fanouts: (usize, usize)) -> InferRequest {
        let nodes = self.nodes();
        InferRequest::sampled(nodes, fanouts.0, fanouts.1, self.rng.next_u64())
    }

    /// A delta adding one or two edges, each between two distinct
    /// zipfian nodes.
    pub fn edge_delta(&mut self) -> GraphDelta {
        let mut delta = GraphDelta::new();
        for _ in 0..1 + self.rng.next_below(2) {
            let u = self.nodes.sample(&mut self.rng);
            let mut v = self.nodes.sample(&mut self.rng);
            if v == u {
                v = (u + 1 + self.rng.next_below(self.num_nodes - 1)) % self.num_nodes;
            }
            delta = delta.add_edge(u, v);
        }
        delta
    }
}

/// One arrival of an open-loop schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arrival {
    /// When the request is due, from the start of the phase.
    pub due: Duration,
    /// Index of the request (into the caller's pool) sent at `due`.
    pub pick: usize,
}

/// Mixes a run seed with a stream id, so that distinct (seed, stream)
/// pairs seed distinct generators.
pub fn mix(seed: u64, stream: u64) -> u64 {
    seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// A seeded Poisson schedule at `rate_rps` over `span`: exponential
/// gaps, each arrival picking a zipfian index into a pool of
/// `pool_size` requests (index 0 most popular).
pub fn poisson_schedule(
    seed: u64,
    rate_rps: f64,
    span: Duration,
    pool_size: usize,
) -> Vec<Arrival> {
    let mut rng = Rng64::new(seed);
    let picks = Zipf::new(pool_size, ZIPF_EXPONENT);
    let mut at = 0.0_f64;
    let mut arrivals = Vec::with_capacity((rate_rps * span.as_secs_f64() * 1.1) as usize);
    loop {
        at += -(1.0 - rng.next_f64()).ln() / rate_rps;
        if at >= span.as_secs_f64() {
            return arrivals;
        }
        arrivals
            .push(Arrival { due: Duration::from_secs_f64(at), pick: picks.sample(&mut rng) });
    }
}

/// One request of an open-loop phase.
#[derive(Debug)]
pub struct Sent {
    pub pick: usize,
    /// When it was due, from the start of the phase.
    pub due: Duration,
    /// How late the generator submitted it (submit start − due).
    pub late: Duration,
    /// Duration of the `submit_with` call.
    pub submit: Duration,
    /// Completion time minus due time.
    pub latency: Duration,
    pub outcome: Result<InferResponse, ServerError>,
}

/// Drives `schedule` open loop: the calling thread spins until each
/// request is due (a sleeping generator on a VM wakes milliseconds late
/// when the host is busy) and submits it through
/// [`ServerHandle::submit_with`]; one collector thread waits on the
/// tickets in submission order and stamps each completion when its wait
/// returns. A completion that overtakes an earlier one is stamped when
/// the collector reaches it, so latencies err high, never low.
pub fn open_loop(
    handle: &ServerHandle,
    pool: &[InferRequest],
    schedule: &[Arrival],
) -> Vec<Sent> {
    let (tx, rx) = mpsc::channel::<(Arrival, Instant, Duration, Result<Ticket, ServerError>)>();
    let start = Instant::now();
    std::thread::scope(|scope| {
        let collector = scope.spawn(move || {
            let mut sent = Vec::with_capacity(schedule.len());
            for (arrival, submitted, submit, ticket) in rx {
                let due = start + arrival.due;
                let outcome = ticket.and_then(Ticket::wait);
                sent.push(Sent {
                    pick: arrival.pick,
                    due: arrival.due,
                    late: submitted.saturating_duration_since(due),
                    submit,
                    latency: Instant::now().saturating_duration_since(due),
                    outcome,
                });
            }
            sent
        });
        for &arrival in schedule {
            let due = start + arrival.due;
            while Instant::now() < due {
                std::hint::spin_loop();
            }
            let submitted = Instant::now();
            let ticket =
                handle.submit_with(pool[arrival.pick].clone(), SubmitOptions::default());
            let submit = submitted.elapsed();
            tx.send((arrival, submitted, submit, ticket))
                .expect("collector outlives the phase");
        }
        drop(tx);
        collector.join().expect("collector thread panicked")
    })
}

/// Completions of a fixed-window phase.
#[derive(Debug, Default)]
pub struct WindowRun {
    pub tally: Tally,
    pub elapsed: Duration,
}

impl WindowRun {
    /// Requests answered `ok` per second.
    pub fn rate(&self) -> f64 {
        self.tally.ok as f64 / self.elapsed.as_secs_f64()
    }
}

/// Keeps `window` requests in flight from the calling thread for
/// `span`: `submit` sends the next one, and each completion makes room
/// for another. Stops submitting at `span` and drains what is in flight.
pub fn window(
    window: usize,
    span: Duration,
    mut submit: impl FnMut() -> Result<Ticket, ServerError>,
) -> WindowRun {
    let mut run = WindowRun::default();
    let mut in_flight: VecDeque<Ticket> = VecDeque::with_capacity(window);
    let start = Instant::now();
    loop {
        let open = start.elapsed() < span;
        while open && in_flight.len() < window {
            match submit() {
                Ok(ticket) => in_flight.push_back(ticket),
                Err(e) => {
                    // Refused at the door: wait for a completion before
                    // offering more.
                    run.tally.record::<()>(&Err(e));
                    break;
                }
            }
        }
        match in_flight.pop_front() {
            Some(ticket) => run.tally.record(&ticket.wait()),
            None => break,
        }
    }
    run.elapsed = start.elapsed();
    run
}

/// Whether two matrices are equal bit for bit.
pub fn same_bits(a: &Matrix, b: &Matrix) -> bool {
    a.shape() == b.shape()
        && a.as_slice().iter().zip(b.as_slice()).all(|(x, y)| x.to_bits() == y.to_bits())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_a_pure_function_of_its_seed() {
        let span = Duration::from_secs(2);
        let a = poisson_schedule(7, 500.0, span, 64);
        assert_eq!(a, poisson_schedule(7, 500.0, span, 64));
        assert_ne!(a, poisson_schedule(8, 500.0, span, 64));
        assert!(a.windows(2).all(|w| w[0].due <= w[1].due));
        assert!(a.iter().all(|x| x.due < span && x.pick < 64));
        // Poisson count over 2 s at 500/s: 1000 ± a few standard deviations.
        assert!((900..1100).contains(&a.len()), "{}", a.len());
    }

    #[test]
    fn schedule_picks_are_skewed() {
        let a = poisson_schedule(3, 2000.0, Duration::from_secs(2), 512);
        let head = a.iter().filter(|x| x.pick == 0).count();
        let tail = a.iter().filter(|x| x.pick == 511).count();
        assert!(head > 20 * tail.max(1), "head {head} tail {tail}");
    }

    #[test]
    fn draws_repeat_per_seed() {
        let mut a = Draw::new(11, 100);
        let mut b = Draw::new(11, 100);
        for _ in 0..50 {
            assert_eq!(a.full_read(), b.full_read());
            assert_eq!(a.edge_delta(), b.edge_delta());
        }
        let delta = Draw::new(5, 2).edge_delta();
        assert!(!delta.is_empty());
    }
}
