//! The `service` workload: an in-process `JoinService` (2 workers × 1
//! join thread) behind `protocol::serve` on loopback, driven by two
//! `Client` connections in a closed loop — `Client::join` blocks, so each
//! caller waits for its reply before sending the next request.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use skewjoin::common::{Relation, SinkSpec};
use skewjoin::cpu::CpuJoinConfig;
use skewjoin::datagen::{PaperWorkload, WorkloadSpec};
use skewjoin::JoinConfig;
use skewjoin_service::{
    serve, AlgoChoice, Client, JoinRequest, JoinService, Outcome, ServerHandle, ServiceConfig,
};

use crate::layers::{self, snapshot_value, CpuTrace};
use crate::measure::{median, tail_percentile, Clock};
use crate::{Ctx, SETUPS, THREADS};

/// Tuples per side of every inline request.
const TUPLES: usize = 1 << 15;
/// One pre-generated pair per zipf factor.
const ZIPFS: [f64; 3] = [0.0, 0.5, 1.0];
const ALGOS: [&str; 3] = ["csh", "cbase", "plan"];
/// Fewest requests a run completes; the window stretches past `--seconds`
/// until it has them.
const MIN_REQUESTS: usize = 200;
/// Passes over the request rotation through in-process `run_join` for the
/// baseline.
const BASELINE_ROTATIONS: usize = 15;

/// One completed round trip.
struct Record {
    pair: usize,
    algo: usize,
    start: Instant,
    end: Instant,
    outcome: Result<Outcome, String>,
}

/// Everything one set-up builds.
struct Setup {
    pairs: Vec<(Arc<Relation>, Arc<Relation>)>,
    service: Arc<JoinService>,
    server: ServerHandle,
    clients: Vec<Client>,
    requests: Vec<(usize, usize, JoinRequest)>,
}

impl Setup {
    /// Closes the connections and stops the server and service; hands
    /// back the pairs.
    fn close(self) -> Vec<(Arc<Relation>, Arc<Relation>)> {
        drop(self.clients);
        self.server.stop();
        self.service.shutdown();
        self.pairs
    }
}

/// Pairs, service, connections, then one warm-up pass per connection over
/// every request (handshake and plan-cache fill); the warm-up round trips
/// go to `records`.
fn set_up(ctx: &mut Ctx, join_config: &JoinConfig, records: &mut Vec<Record>) -> Option<Setup> {
    let start = Instant::now();
    let pairs: Vec<(Arc<Relation>, Arc<Relation>)> = ZIPFS
        .iter()
        .enumerate()
        .map(|(i, &z)| {
            let spec = WorkloadSpec::paper(TUPLES, z, ctx.seed.wrapping_add(i as u64));
            let w = PaperWorkload::generate(spec);
            (Arc::new(w.r), Arc::new(w.s))
        })
        .collect();
    ctx.layer("datagen.generate_s", start.elapsed().as_secs_f64());
    let service = JoinService::start(ServiceConfig {
        workers: THREADS,
        // No spill: the benchmark writes nothing outside its checkout.
        disk_budget: 0,
        join_config: join_config.clone(),
        ..ServiceConfig::default()
    });
    let server = match serve(Arc::clone(&service), "127.0.0.1:0") {
        Ok(s) => s,
        Err(e) => {
            ctx.fail(format!("serve on loopback: {e}"));
            service.shutdown();
            return None;
        }
    };
    let requests: Vec<(usize, usize, JoinRequest)> = (0..pairs.len())
        .flat_map(|p| (0..ALGOS.len()).map(move |a| (p, a)))
        .map(|(p, a)| {
            let algo = AlgoChoice::parse(ALGOS[a]).expect("known algorithm");
            let (r, s) = &pairs[p];
            (
                p,
                a,
                JoinRequest::inline("skewbench", algo, Arc::clone(r), Arc::clone(s)),
            )
        })
        .collect();
    let mut setup = Setup {
        pairs,
        service,
        server,
        clients: Vec::new(),
        requests,
    };
    for _ in 0..THREADS {
        match Client::connect(setup.server.addr()) {
            Ok(c) => setup.clients.push(c),
            Err(e) => {
                ctx.fail(format!("connect: {e}"));
                setup.close();
                return None;
            }
        }
    }
    for client in &mut setup.clients {
        for (pair, algo, request) in &setup.requests {
            records.push(round_trip(client, *pair, *algo, request));
        }
    }
    Some(setup)
}

fn round_trip(client: &mut Client, pair: usize, algo: usize, request: &JoinRequest) -> Record {
    let start = Instant::now();
    let outcome = client
        .join(request)
        .map(|r| r.outcome)
        .map_err(|e| e.to_string());
    Record {
        pair,
        algo,
        start,
        end: Instant::now(),
        outcome,
    }
}

/// The round trips of every round, and the service counters' changes over
/// the timed windows.
#[derive(Default)]
struct Log {
    warm: Vec<Record>,
    timed: Vec<Record>,
    window_s: f64,
    memory_waits: f64,
    plan_hits: f64,
    plan_lookups: f64,
    governor_peak: f64,
}

/// Each connection walks the request rotation from its own offset, in a
/// closed loop.
fn measure(log: &mut Log, setup: &mut Setup, seconds: f64) {
    let min = MIN_REQUESTS.div_ceil(SETUPS);
    let before = setup.service.snapshot();
    let done = AtomicUsize::new(0);
    let window = Instant::now();
    let requests = &setup.requests;
    let timed: Vec<Record> = std::thread::scope(|scope| {
        let handles: Vec<_> = setup
            .clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                let done = &done;
                scope.spawn(move || {
                    let mut log = Vec::new();
                    let mut i = c * requests.len() / THREADS;
                    while window.elapsed().as_secs_f64() < seconds
                        || done.load(Ordering::Relaxed) < min
                    {
                        let (pair, algo, request) = &requests[i % requests.len()];
                        log.push(round_trip(client, *pair, *algo, request));
                        done.fetch_add(1, Ordering::Relaxed);
                        i += 1;
                    }
                    log
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    log.window_s += window.elapsed().as_secs_f64();
    let after = setup.service.snapshot();
    let delta = |path: &[&str]| snapshot_value(&after, path) - snapshot_value(&before, path);
    log.memory_waits += delta(&["metrics", "counters", "service.memory_waits"]);
    let hits = delta(&["plan_cache", "hits"]);
    log.plan_hits += hits;
    log.plan_lookups += hits + delta(&["plan_cache", "misses"]);
    log.governor_peak = log
        .governor_peak
        .max(snapshot_value(&after, &["governor", "peak_bytes"]));
    log.timed.extend(timed);
}

pub fn run(ctx: &mut Ctx) {
    let join_config = JoinConfig::from(CpuJoinConfig {
        threads: 1,
        ..CpuJoinConfig::sized_for(TUPLES, 2048)
    });
    let mut log = Log::default();
    let Some(mut setup) = ctx.rounds(
        &mut log,
        |ctx, log| set_up(ctx, &join_config, &mut log.warm),
        |_, log, setup, seconds| measure(log, setup, seconds),
        |s| drop(s.close()),
    ) else {
        return;
    };
    let requests = std::mem::take(&mut setup.requests);
    let pairs = setup.close();
    // The algorithm each request ran, as the last warm-up pass reports it
    // (the planner's pick for `plan`), for the in-process baseline.
    let ran: Vec<Option<String>> = log.warm[log.warm.len() - requests.len()..]
        .iter()
        .map(|r| match &r.outcome {
            Ok(Outcome::Completed(s)) => Some(s.algorithm.clone()),
            _ => None,
        })
        .collect();

    // ---- Answers: every pair's count and checksum from an in-process
    // count-sink CSH run, itself checked against the oracle.
    let expected: Vec<Option<(u64, u64)>> = pairs
        .iter()
        .map(|(r, s)| {
            let truth = layers::expected_matches(r.tuples(), s.tuples());
            let algo = skewjoin::Algorithm::Cpu(skewjoin::CpuAlgorithm::Csh);
            match skewjoin::run_join(algo, r, s, &join_config, SinkSpec::Count) {
                Ok(st) => {
                    ctx.check(st.result_count == truth, || {
                        format!(
                            "in-process CSH: {} results, expected {truth}",
                            st.result_count
                        )
                    });
                    Some((truth, st.checksum))
                }
                Err(e) => {
                    ctx.fail(format!("in-process CSH: {e}"));
                    None
                }
            }
        })
        .collect();
    let mut rtt = Vec::new();
    for (timed, rec) in log
        .warm
        .iter()
        .map(|r| (false, r))
        .chain(log.timed.iter().map(|r| (true, r)))
    {
        let want = expected[rec.pair];
        let what = || format!("{} request on pair {}", ALGOS[rec.algo], rec.pair);
        match &rec.outcome {
            Ok(Outcome::Completed(s)) => {
                let got = Some((s.result_count, s.checksum));
                ctx.check(got == want, || {
                    format!("{}: got {got:?}, expected {want:?}", what())
                });
                if timed {
                    rtt.push((rec.end - rec.start).as_secs_f64());
                    let op = ctx.tracer.op();
                    let span = ctx
                        .tracer
                        .span("service.request", op, None, rec.start, rec.end);
                    let parts = [
                        ("service.queue_wait", s.queue_nanos as f64 * 1e-9),
                        ("service.exec", s.exec_nanos as f64 * 1e-9),
                    ];
                    ctx.tracer.children(span, &parts, "service.overhead");
                }
            }
            Ok(other) => ctx.fail(format!("{}: {other:?}", what())),
            Err(e) => ctx.fail(format!("{}: {e}", what())),
        }
    }

    // ---- Baseline: the request rotation through `run_join` in-process,
    // each request with the algorithm the service ran for it. One sample
    // is one rotation's mean wait per request.
    let mut plan = Vec::new();
    for (i, (pair, _, _)) in requests.iter().enumerate() {
        match ran[i].as_deref().and_then(AlgoChoice::parse) {
            Some(AlgoChoice::Fixed(algo)) => plan.push((*pair, algo)),
            _ => ctx.fail(format!(
                "request {i}: the service reported no runnable algorithm"
            )),
        }
    }
    let mut baseline = Vec::new();
    let mut trace = CpuTrace::default();
    for _ in 0..BASELINE_ROTATIONS {
        let mut waited = 0.0;
        for &(pair, algo) in &plan {
            let (r, s) = &pairs[pair];
            let start = Instant::now();
            let result = skewjoin::run_join(algo, r, s, &join_config, SinkSpec::Count);
            let end = Instant::now();
            waited += (end - start).as_secs_f64();
            match result {
                Ok(st) => {
                    let got = Some((st.result_count, st.checksum));
                    ctx.check(got == expected[pair], || {
                        format!("in-process {algo} on pair {pair}: got {got:?}")
                    });
                    trace.record(ctx, start, end, &st);
                }
                Err(e) => ctx.fail(format!("in-process {algo} on pair {pair}: {e}")),
            }
        }
        baseline.push(waited / plan.len().max(1) as f64);
    }

    let sim_pairs: Vec<(&Relation, &Relation)> = pairs.iter().map(|(r, s)| (&**r, &**s)).collect();
    let (gsh_ms, gbase_ms, gpu_answers) = layers::gpu_sims(ctx, &sim_pairs);
    for (i, answer) in gpu_answers.into_iter().enumerate() {
        let want = expected[i % pairs.len()];
        if answer.is_some() {
            ctx.check(answer == want, || {
                format!("GPU simulation on pair {}: {answer:?}", i % pairs.len())
            });
        }
    }

    if ctx.tracer.on() {
        let all_r: Vec<_> = pairs
            .iter()
            .flat_map(|(r, _)| r.tuples().iter().copied())
            .collect();
        layers::kernels(ctx, &all_r, &join_config.cpu);
        let shapes: Vec<JoinRequest> = requests
            .iter()
            .filter(|(_, a, _)| *a == 0)
            .map(|(_, _, q)| q.clone())
            .collect();
        let (encode, decode, bytes) = layers::wire_cost(&shapes, "join");
        let shipped: usize = pairs.iter().map(|(r, s)| r.len() + s.len()).sum();
        ctx.layer("protocol.encode_ms", median(&encode) * 1e3);
        ctx.layer("protocol.decode_ms", median(&decode) * 1e3);
        ctx.layer("protocol.bytes_per_tuple", bytes as f64 / shipped as f64);
        ctx.layer_from_spans("service.queue_wait_ms", "service.queue_wait", 1e3);
        ctx.layer_from_spans("service.exec_ms", "service.exec", 1e3);
        ctx.layer_from_spans("service.overhead_ms", "service.overhead", 1e3);
        ctx.layer("trace.wait_p50_ms", median(&rtt) * 1e3);
    }
    trace.finish(ctx);
    ctx.layer("service.memory_waits", log.memory_waits);
    if log.plan_lookups > 0.0 {
        ctx.layer(
            "service.plan_cache_hit_ratio",
            log.plan_hits / log.plan_lookups,
        );
    }
    ctx.layer(
        "service.governor_peak_mb",
        log.governor_peak / (1u64 << 20) as f64,
    );

    let n = rtt.len();
    ctx.timing(
        "request_p50_ms",
        "ms",
        &rtt,
        1e3,
        Some(("wait_p50_ms", 1.0)),
    );
    let (p, tail) = tail_percentile(&rtt).unwrap_or((100, rtt.iter().copied().fold(0.0, f64::max)));
    println!("request_p95_ms is the p{p} of {n} round trips");
    ctx.metric("request_p95_ms", "ms", Clock::Wall, tail * 1e3, n);
    ctx.metric(
        "requests_per_s",
        "req/s",
        Clock::Wall,
        n as f64 / log.window_s,
        n,
    );
    ctx.timing("inprocess_join_ms", "ms", &baseline, 1e3, None);
    ctx.metric("gsh_sim_ms", "ms", Clock::Simulated, gsh_ms, pairs.len());
    ctx.metric(
        "gbase_sim_ms",
        "ms",
        Clock::Simulated,
        gbase_ms,
        pairs.len(),
    );
}
