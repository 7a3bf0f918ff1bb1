//! The `cluster` workload: two shard `JoinService`s (1 worker × 1 join
//! thread each) behind `protocol::serve_shard` on loopback and one
//! `Coordinator`, running one paper-workload join at a time.

use std::sync::Arc;
use std::time::Instant;

use skewjoin::common::SinkSpec;
use skewjoin::cpu::route::ShardRouter;
use skewjoin::cpu::{CpuJoinConfig, SkewDetectConfig};
use skewjoin::datagen::{PaperWorkload, WorkloadSpec};
use skewjoin::{Algorithm, CpuAlgorithm, JoinConfig, ShardPartition};
use skewjoin_cluster::{scatter, ClusterConfig, ClusterJoin, Coordinator};
use skewjoin_service::{
    serve_shard, AlgoChoice, JoinRequest, JoinService, ServerHandle, ServiceConfig,
};

use crate::layers::{self, snapshot_value, CpuTrace};
use crate::measure::{median, Clock};
use crate::{Ctx, SETUPS, THREADS};

const TUPLES: usize = 1 << 19;
const ZIPF: f64 = 0.75;
const SHARDS: usize = 2;
/// Fewest timed cluster joins; the window stretches past `--seconds`
/// until it has them.
const MIN_JOINS: usize = 24;
/// Single-node baseline runs, after the window (about 0.15 s each).
const BASELINE_RUNS: usize = 15;

/// Each shard's total execution time so far, in microseconds.
const EXEC_MICROS: [&str; 4] = ["metrics", "histograms", "service.exec_micros", "sum"];

/// Everything one set-up builds.
struct Setup {
    w: PaperWorkload,
    /// The coordinator's hot-key detector, for the traced run's own routing.
    skew: SkewDetectConfig,
    shards: Vec<Arc<JoinService>>,
    servers: Vec<ServerHandle>,
    coordinator: Coordinator,
}

impl Setup {
    /// Stops the coordinator, servers and shards; hands back the data.
    fn close(self) -> PaperWorkload {
        drop(self.coordinator);
        for server in self.servers {
            server.stop();
        }
        for shard in &self.shards {
            shard.shutdown();
        }
        self.w
    }
}

/// Data, shards, coordinator, then one warm-up join (connection set-up and
/// first touch of the shards' buffers), whose result goes to `results`.
fn set_up(ctx: &mut Ctx, results: &mut Vec<Result<ClusterJoin, String>>) -> Option<Setup> {
    let start = Instant::now();
    let w = PaperWorkload::generate(WorkloadSpec::paper(TUPLES, ZIPF, ctx.seed));
    ctx.layer("datagen.generate_s", start.elapsed().as_secs_f64());
    let shard_config = JoinConfig::from(CpuJoinConfig {
        threads: 1,
        ..CpuJoinConfig::sized_for(TUPLES / SHARDS, 2048)
    });
    let shards: Vec<Arc<JoinService>> = (0..SHARDS)
        .map(|_| {
            JoinService::start(ServiceConfig {
                workers: 1,
                // No spill: the benchmark writes nothing outside its checkout.
                disk_budget: 0,
                join_config: shard_config.clone(),
                ..ServiceConfig::default()
            })
        })
        .collect();
    let mut servers = Vec::new();
    for (slot, shard) in shards.iter().enumerate() {
        match serve_shard(Arc::clone(shard), "127.0.0.1:0", Some(slot as u32)) {
            Ok(s) => servers.push(s),
            Err(e) => ctx.fail(format!("serve shard {slot} on loopback: {e}")),
        }
    }
    let config = ClusterConfig::new(servers.iter().map(|s| s.addr().to_string()).collect());
    let skew = config.skew;
    let coordinator = Coordinator::new(config).expect("shards configured");
    let setup = Setup {
        w,
        skew,
        shards,
        servers,
        coordinator,
    };
    if setup.servers.len() < SHARDS {
        setup.close();
        return None;
    }
    results.push(
        setup
            .coordinator
            .join(&setup.w.r, &setup.w.s)
            .map_err(|e| e.to_string()),
    );
    Some(setup)
}

/// The joins of every round, and the shards' counters over the timed
/// windows.
#[derive(Default)]
struct Log {
    /// Every cluster join's outcome, warm-ups included.
    results: Vec<Result<ClusterJoin, String>>,
    waits: Vec<f64>,
    probe_share: Vec<f64>,
    window_s: f64,
    memory_waits: f64,
    governor_peak: f64,
}

/// The value at `path` in each shard's snapshot.
fn shard_counter(shards: &[Arc<JoinService>], path: &[&str]) -> Vec<f64> {
    shards
        .iter()
        .map(|s| snapshot_value(&s.snapshot(), path))
        .collect()
}

/// One join at a time. Traced, the join is issued as its two public
/// halves — route (`ShardRouter::detect` + `scatter`) and
/// `Coordinator::dispatch` — which is exactly what `Coordinator::join` does.
fn measure(ctx: &mut Ctx, log: &mut Log, setup: &Setup, seconds: f64) {
    let (w, shards, coordinator) = (&setup.w, &setup.shards, &setup.coordinator);
    let waits_path = ["metrics", "counters", "service.memory_waits"];
    let waits_before: f64 = shard_counter(shards, &waits_path).iter().sum();
    let min = MIN_JOINS.div_ceil(SETUPS);
    let window = Instant::now();
    let mut taken = 0;
    while window.elapsed().as_secs_f64() < seconds || taken < min {
        let (start, result, end) = if ctx.tracer.on() {
            let exec_before = shard_counter(shards, &EXEC_MICROS);
            let start = Instant::now();
            let mut router = ShardRouter::detect(w.r.tuples(), SHARDS, &setup.skew);
            let scattered = scatter(&w.r, &w.s, &mut router);
            let routed = Instant::now();
            let largest = scattered.s.iter().map(|s| s.len()).max().unwrap_or(0);
            log.probe_share.push(largest as f64 / w.s.len() as f64);
            let result = coordinator.dispatch(scattered);
            let end = Instant::now();
            let shard_exec = shard_counter(shards, &EXEC_MICROS)
                .iter()
                .zip(&exec_before)
                .map(|(after, before)| (after - before) * 1e-6)
                .fold(0.0, f64::max);
            let t = &mut ctx.tracer;
            let op = t.op();
            let join = t.span("cluster.join", op, None, start, end);
            t.span("cluster.route", op, join, start, routed);
            let dispatch = t.span("cluster.dispatch", op, join, routed, end);
            t.children(
                dispatch,
                &[("cluster.shard_exec", shard_exec)],
                "cluster.ship_merge",
            );
            (start, result, end)
        } else {
            let start = Instant::now();
            let result = coordinator.join(&w.r, &w.s);
            (start, result, Instant::now())
        };
        if result.is_ok() {
            log.waits.push((end - start).as_secs_f64());
        }
        log.results.push(result.map_err(|e| e.to_string()));
        taken += 1;
    }
    log.window_s += window.elapsed().as_secs_f64();
    log.memory_waits += shard_counter(shards, &waits_path).iter().sum::<f64>() - waits_before;
    let peaks = shard_counter(shards, &["governor", "peak_bytes"]);
    log.governor_peak = peaks.into_iter().fold(log.governor_peak, f64::max);
}

pub fn run(ctx: &mut Ctx) {
    let mut log = Log::default();
    let Some(setup) = ctx.rounds(
        &mut log,
        |ctx, log| set_up(ctx, &mut log.results),
        |ctx, log, setup, seconds| measure(ctx, log, setup, seconds),
        |s| drop(s.close()),
    ) else {
        return;
    };
    let skew_config = setup.skew;
    let w = setup.close();
    let Log {
        results,
        waits,
        probe_share,
        window_s,
        memory_waits,
        governor_peak,
    } = log;

    // ---- Single-node baseline (CSH, 2 threads, Volcano sink) and the
    // reference answer (count sink), both checked against the oracle.
    let single = JoinConfig::from(CpuJoinConfig {
        threads: THREADS,
        ..CpuJoinConfig::sized_for(TUPLES, 2048)
    });
    let csh = Algorithm::Cpu(CpuAlgorithm::Csh);
    let expected = layers::expected_matches(w.r.tuples(), w.s.tuples());
    let reference = match skewjoin::run_join(csh, &w.r, &w.s, &single, SinkSpec::Count) {
        Ok(st) => {
            ctx.check(st.result_count == expected, || {
                format!(
                    "single-node CSH: {} results, expected {expected}",
                    st.result_count
                )
            });
            Some((st.result_count, st.checksum))
        }
        Err(e) => {
            ctx.fail(format!("single-node CSH count run: {e}"));
            None
        }
    };
    let mut baseline = Vec::new();
    let mut trace = CpuTrace::default();
    for _ in 0..BASELINE_RUNS {
        let start = Instant::now();
        let result = skewjoin::run_join(csh, &w.r, &w.s, &single, SinkSpec::default());
        let end = Instant::now();
        match result {
            Ok(st) => {
                ctx.check(st.result_count == expected, || {
                    format!(
                        "single-node CSH: {} results, expected {expected}",
                        st.result_count
                    )
                });
                baseline.push((end - start).as_secs_f64());
                trace.record(ctx, start, end, &st);
            }
            Err(e) => ctx.fail(format!("single-node CSH: {e}")),
        }
    }
    let mut routing = None;
    for (i, result) in results.iter().enumerate() {
        match result {
            Ok(j) => {
                let got = Some((j.result_count, j.checksum));
                ctx.check(got == reference, || {
                    format!("cluster join {i}: got {got:?}, single-node CSH {reference:?}")
                });
                routing = Some(j.routing.clone());
            }
            Err(e) => ctx.fail(format!("cluster join {i}: {e}")),
        }
    }

    let (gsh_ms, gbase_ms, gpu_answers) = layers::gpu_sims(ctx, &[(&w.r, &w.s)]);
    for answer in gpu_answers.into_iter().flatten() {
        ctx.check(Some(answer) == reference, || {
            format!("GPU simulation: {answer:?}")
        });
    }

    if ctx.tracer.on() {
        layers::kernels(ctx, w.r.tuples(), &single.cpu);
        // The wire encoding of one join's shard requests, built as
        // `Coordinator::dispatch` builds them.
        let mut router = ShardRouter::detect(w.r.tuples(), SHARDS, &skew_config);
        let scattered = scatter(&w.r, &w.s, &mut router);
        let algo = AlgoChoice::parse("csh").expect("known algorithm");
        let requests: Vec<JoinRequest> = (0..SHARDS)
            .map(|slot| {
                let (r, s) = (&scattered.r[slot], &scattered.s[slot]);
                let mut q = JoinRequest::inline(
                    "skewbench",
                    algo,
                    Arc::new(r.clone()),
                    Arc::new(s.clone()),
                );
                q.shard = Some(ShardPartition {
                    slot,
                    shards: SHARDS,
                    hot_keys: scattered.hot_keys.clone(),
                });
                q
            })
            .collect();
        let (encode, decode, bytes) = layers::wire_cost(&requests, "shard_join");
        let shipped: usize = scattered
            .r
            .iter()
            .chain(&scattered.s)
            .map(|p| p.len())
            .sum();
        ctx.layer("protocol.encode_ms", median(&encode) * 1e3);
        ctx.layer("protocol.decode_ms", median(&decode) * 1e3);
        ctx.layer("protocol.bytes_per_tuple", bytes as f64 / shipped as f64);
        ctx.layer("cluster.encode_s", encode.iter().sum());
        for (metric, span) in [
            ("cluster.route_s", "cluster.route"),
            ("cluster.dispatch_s", "cluster.dispatch"),
            ("cluster.shard_exec_s", "cluster.shard_exec"),
            ("cluster.ship_merge_s", "cluster.ship_merge"),
        ] {
            ctx.layer_from_spans(metric, span, 1.0);
        }
        ctx.layer("cluster.max_shard_probe_share", median(&probe_share));
        ctx.layer("cluster.single_node_csh_s", median(&baseline));
        ctx.layer("trace.wait_p50_ms", median(&waits) * 1e3);
    }
    trace.finish(ctx);
    if let Some(r) = routing {
        ctx.layer("cluster.hot_keys", r.hot_keys as f64);
        ctx.layer(
            "cluster.replicated_build_copies",
            r.replicated_build_copies as f64,
        );
        ctx.layer("cluster.split_probe_tuples", r.split_probe_tuples as f64);
    }
    ctx.layer("service.memory_waits", memory_waits);
    ctx.layer(
        "service.governor_peak_mb",
        governor_peak / (1u64 << 20) as f64,
    );

    ctx.timing(
        "cluster_join_s",
        "s",
        &waits,
        1.0,
        Some(("wait_p50_ms", 1e3)),
    );
    ctx.timing("single_node_csh_s", "s", &baseline, 1.0, None);
    ctx.metric(
        "cluster_joins_per_s",
        "1/s",
        Clock::Wall,
        waits.len() as f64 / window_s,
        waits.len(),
    );
    ctx.metric("gsh_sim_ms", "ms", Clock::Simulated, gsh_ms, 1);
    ctx.metric("gbase_sim_ms", "ms", Clock::Simulated, gbase_ms, 1);
}
