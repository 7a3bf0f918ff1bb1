//! The `uniform` and `skewed` workloads: one caller runs CSH and Cbase
//! alternately through `run_join` (2 threads, the paper's Volcano sink),
//! then one GSH and one Gbase run on the simulator.

use std::time::Instant;

use skewjoin::common::SinkSpec;
use skewjoin::cpu::CpuJoinConfig;
use skewjoin::datagen::{PaperWorkload, WorkloadSpec};
use skewjoin::{CpuAlgorithm, JoinConfig};

use crate::layers::{self, CpuTrace};
use crate::measure::{median, Clock};
use crate::{Ctx, SETUPS, THREADS};

/// Fewest timed runs of each algorithm per run; a round's window stretches
/// past its share of `--seconds` until it holds its share of them.
const MIN_SAMPLES: usize = 7;

const ALGOS: [CpuAlgorithm; 2] = [CpuAlgorithm::Csh, CpuAlgorithm::Cbase];

#[derive(Default)]
struct Samples {
    waits: [Vec<f64>; 2],
    /// Result count of every timed run.
    counts: Vec<(CpuAlgorithm, u64)>,
    /// (algorithm, count, checksum) of every count-sink run.
    answers: Vec<(&'static str, u64, u64)>,
    trace: CpuTrace,
    window_s: f64,
}

/// Data generation, then one count-sink run per algorithm, which
/// first-touches the join's buffers and gives the checksums the algorithms
/// must agree on.
fn set_up(ctx: &mut Ctx, s: &mut Samples, spec: WorkloadSpec, cfg: &JoinConfig) -> PaperWorkload {
    let start = Instant::now();
    let w = PaperWorkload::generate(spec);
    ctx.layer("datagen.generate_s", start.elapsed().as_secs_f64());
    for algo in ALGOS {
        match skewjoin::run_join(algo.into(), &w.r, &w.s, cfg, SinkSpec::Count) {
            Ok(stats) => s
                .answers
                .push((algo.name(), stats.result_count, stats.checksum)),
            Err(e) => ctx.fail(format!("{algo} count-sink run: {e}")),
        }
    }
    w
}

/// CSH and Cbase back to back, one caller.
fn measure(ctx: &mut Ctx, s: &mut Samples, w: &PaperWorkload, cfg: &JoinConfig, seconds: f64) {
    let min = MIN_SAMPLES.div_ceil(SETUPS);
    let window = Instant::now();
    let mut taken = 0;
    while window.elapsed().as_secs_f64() < seconds || taken < min {
        for (i, algo) in ALGOS.into_iter().enumerate() {
            let start = Instant::now();
            let result = skewjoin::run_join(algo.into(), &w.r, &w.s, cfg, SinkSpec::default());
            let end = Instant::now();
            match result {
                Ok(stats) => {
                    s.waits[i].push((end - start).as_secs_f64());
                    s.counts.push((algo, stats.result_count));
                    s.trace.record(ctx, start, end, &stats);
                }
                Err(e) => ctx.fail(format!("{algo} timed run: {e}")),
            }
        }
        taken += 1;
    }
    s.window_s += window.elapsed().as_secs_f64();
}

pub fn run(ctx: &mut Ctx, tuples: usize, zipf: f64) {
    let cpu = CpuJoinConfig {
        threads: THREADS,
        ..CpuJoinConfig::sized_for(tuples, 2048)
    };
    let cfg = JoinConfig::from(cpu.clone());
    let spec = WorkloadSpec::paper(tuples, zipf, ctx.seed);
    let mut s = Samples::default();
    let w = ctx
        .rounds(
            &mut s,
            |ctx, s| Some(set_up(ctx, s, spec, &cfg)),
            |ctx, s, w, seconds| measure(ctx, s, w, &cfg, seconds),
            drop,
        )
        .expect("generation cannot fail");

    // ---- After the windows: simulator runs, the oracle, isolated kernels.
    let (gsh_ms, gbase_ms, gpu_answers) = layers::gpu_sims(ctx, &[(&w.r, &w.s)]);
    for (name, answer) in ["GSH", "Gbase"].into_iter().zip(gpu_answers) {
        if let Some((count, checksum)) = answer {
            s.answers.push((name, count, checksum));
        }
    }
    let expected = layers::expected_matches(w.r.tuples(), w.s.tuples());
    for &(algo, count) in &s.counts {
        ctx.check(count == expected, || {
            format!("{algo} timed run returned {count} results, expected {expected}")
        });
    }
    let reference = s.answers.first().map(|a| a.2);
    for &(algo, count, checksum) in &s.answers {
        ctx.check(count == expected && Some(checksum) == reference, || {
            format!("{algo} count-sink run: {count} results / checksum {checksum:#x}, expected {expected} / {reference:#x?}")
        });
    }
    layers::kernels(ctx, w.r.tuples(), &cpu);
    s.trace.finish(ctx);

    let [csh, cbase] = &s.waits;
    if ctx.tracer.on() {
        ctx.layer("trace.wait_p50_ms", median(csh) * 1e3);
    }
    ctx.timing("csh_join_s", "s", csh, 1.0, Some(("wait_p50_ms", 1e3)));
    ctx.timing("cbase_join_s", "s", cbase, 1.0, None);
    let ops = csh.len() + cbase.len();
    ctx.metric(
        "joins_per_s",
        "1/s",
        Clock::Wall,
        ops as f64 / s.window_s,
        ops,
    );
    ctx.metric("gsh_sim_ms", "ms", Clock::Simulated, gsh_ms, 1);
    ctx.metric("gbase_sim_ms", "ms", Clock::Simulated, gbase_ms, 1);
}
