//! Measurements shared by the workloads: the correctness oracle, the
//! attribution of one join's wall time to its phases, the GPU simulator
//! runs, and the isolated kernel and protocol timings of the traced run.

use std::time::Instant;

use skewjoin::common::hash::RadixMode;
use skewjoin::common::trace::counter;
use skewjoin::common::{JoinStats, Json, Relation, SinkSpec, Tuple};
use skewjoin::cpu::{partition, simd, skew, CpuJoinConfig};
use skewjoin::{Algorithm, GpuAlgorithm, JoinConfig};
use skewjoin_service::protocol::{read_frame, write_frame};
use skewjoin_service::JoinRequest;

use crate::measure::median;
use crate::Ctx;

/// Repetitions of each isolated kernel or protocol timing; the median is
/// reported.
const ISOLATED_REPS: usize = 5;

/// Σ_k f_R(k)·f_S(k): the exact result count of `r ⋈ s`, by sort-merge of
/// the key columns (independent of every join algorithm under test).
pub fn expected_matches(r: &[Tuple], s: &[Tuple]) -> u64 {
    let sorted = |rel: &[Tuple]| {
        let mut k: Vec<u32> = rel.iter().map(|t| t.key).collect();
        k.sort_unstable();
        k
    };
    let (r, s) = (sorted(r), sorted(s));
    let (mut i, mut j, mut total) = (0, 0, 0u64);
    while i < r.len() && j < s.len() {
        match r[i].cmp(&s[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                let key = r[i];
                let i0 = i;
                while i < r.len() && r[i] == key {
                    i += 1;
                }
                let j0 = j;
                while j < s.len() && s[j] == key {
                    j += 1;
                }
                total += ((i - i0) * (j - j0)) as u64;
            }
        }
    }
    total
}

/// The number at `path` in a `JoinService::snapshot()` document; 0 when
/// the service has not recorded it yet.
pub fn snapshot_value(snapshot: &Json, path: &[&str]) -> f64 {
    path.iter()
        .try_fold(snapshot, |j, k| j.get(k))
        .and_then(Json::as_f64)
        .unwrap_or(0.0)
}

/// Wall-time attribution of CPU joins: each join becomes a `core.<algo>`
/// span whose children are its `JoinStats` phases laid end to end plus a
/// `core.<algo>.unattributed` residual, and its skew and scheduler counters
/// are collected.
#[derive(Default)]
pub struct CpuTrace {
    skewed_keys: Vec<f64>,
    skew_share: Vec<f64>,
    stolen: u64,
    steal_failures: u64,
}

impl CpuTrace {
    pub fn record(&mut self, ctx: &mut Ctx, start: Instant, end: Instant, stats: &JoinStats) {
        if !ctx.tracer.on() {
            return;
        }
        let algo = stats.algorithm.to_ascii_lowercase();
        let op = ctx.tracer.op();
        let span = ctx
            .tracer
            .span(&format!("core.{algo}"), op, None, start, end);
        let phases: Vec<(String, f64)> = stats
            .phases
            .iter()
            .map(|(p, d)| (format!("cpu.{algo}.{p}"), d.as_secs_f64()))
            .collect();
        let parts: Vec<(&str, f64)> = phases.iter().map(|(n, d)| (n.as_str(), *d)).collect();
        ctx.tracer
            .children(span, &parts, &format!("core.{algo}.unattributed"));
        if algo == "csh" {
            self.skewed_keys.push(stats.skewed_keys_detected as f64);
            self.skew_share.push(stats.skew_output_fraction());
        }
        for p in &stats.trace.phases {
            self.stolen += p.get(counter::TASKS_STOLEN).unwrap_or(0);
            self.steal_failures += p.get(counter::STEAL_FAILURES).unwrap_or(0);
        }
    }

    /// Publishes the `core.*` and `cpu.*` per-layer metrics.
    pub fn finish(self, ctx: &mut Ctx) {
        if !ctx.tracer.on() {
            return;
        }
        for (metric, span) in [
            ("core.csh.unattributed_s", "core.csh.unattributed"),
            ("core.cbase.unattributed_s", "core.cbase.unattributed"),
            ("cpu.csh.sample_s", "cpu.csh.sample"),
            ("cpu.csh.partition_r_s", "cpu.csh.partition_r"),
            ("cpu.csh.partition_s_s", "cpu.csh.partition_s"),
            ("cpu.csh.nm_join_s", "cpu.csh.nm_join"),
            ("cpu.cbase.partition_s", "cpu.cbase.partition"),
            ("cpu.cbase.join_s", "cpu.cbase.join"),
        ] {
            ctx.layer_from_spans(metric, span, 1.0);
        }
        ctx.layer("cpu.csh.skewed_keys", median(&self.skewed_keys));
        ctx.layer("cpu.csh.skew_result_share", median(&self.skew_share));
        let attempts = self.stolen + self.steal_failures;
        if attempts > 0 {
            ctx.layer(
                "cpu.steal_success_ratio",
                self.stolen as f64 / attempts as f64,
            );
        }
    }
}

/// Simulated device time of one GSH and one Gbase run (count sinks, so
/// they also give checksums), each summed over `pairs`. Sets the `gpu.*`
/// per-layer metrics and returns `(gsh_ms, gbase_ms)` plus each run's
/// `(count, checksum)` in `pairs` order, GSH first.
pub fn gpu_sims(
    ctx: &mut Ctx,
    pairs: &[(&Relation, &Relation)],
) -> (f64, f64, Vec<Option<(u64, u64)>>) {
    let cfg = JoinConfig::default();
    let mut answers = Vec::new();
    let mut totals = [0.0f64; 2];
    let mut phases = std::collections::BTreeMap::<String, f64>::new();
    for (i, algo) in [GpuAlgorithm::Gsh, GpuAlgorithm::Gbase]
        .into_iter()
        .enumerate()
    {
        for (r, s) in pairs {
            match skewjoin::run_join(Algorithm::Gpu(algo), r, s, &cfg, SinkSpec::Count) {
                Ok(stats) => {
                    totals[i] += stats.total_time().as_secs_f64() * 1e3;
                    for (p, d) in stats.phases.iter() {
                        let key = format!("gpu.{}.{p}_ms", algo.name().to_ascii_lowercase());
                        *phases.entry(key).or_default() += d.as_secs_f64() * 1e3;
                    }
                    answers.push(Some((stats.result_count, stats.checksum)));
                }
                Err(e) => {
                    ctx.fail(format!("{} simulation: {e}", algo.name()));
                    answers.push(None);
                }
            }
        }
    }
    for metric in [
        "gpu.gsh.partition_ms",
        "gpu.gsh.nm_join_ms",
        "gpu.gsh.skew_join_ms",
        "gpu.gbase.partition_ms",
        "gpu.gbase.join_ms",
    ] {
        ctx.layer(metric, phases.get(metric).copied().unwrap_or(0.0));
    }
    ctx.layer("gsh_sim_ms", totals[0]);
    ctx.layer("gbase_sim_ms", totals[1]);
    (totals[0], totals[1], answers)
}

fn time_median(mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..ISOLATED_REPS)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples)
}

/// Isolated timings of the partitioning kernels on `r` (traced run only).
pub fn kernels(ctx: &mut Ctx, r: &[Tuple], cfg: &CpuJoinConfig) {
    if !ctx.tracer.on() || r.is_empty() {
        return;
    }
    let n = r.len() as f64;
    let radix = &cfg.radix;
    let mixed = radix.mode == RadixMode::Mixed;
    let (shift, mask) = (radix.shift(0), (radix.fanout(0) - 1) as u32);
    let level = simd::detect();
    let mut out = vec![0u32; r.len()];
    let hash = time_median(|| {
        simd::hash_indices(level, std::hint::black_box(r), mixed, shift, mask, &mut out);
        std::hint::black_box(&out);
    });
    let scatter = time_median(|| {
        let p = partition::parallel_radix_partition(std::hint::black_box(r), radix, crate::THREADS)
            .expect("radix partitioning a generated relation");
        std::hint::black_box(p);
    });
    let detect = time_median(|| {
        std::hint::black_box(skew::detect_skewed_keys(std::hint::black_box(r), &cfg.skew));
    });
    ctx.layer("kernel.hash_ns_per_tuple", hash * 1e9 / n);
    ctx.layer("kernel.radix_partition_ns_per_tuple", scatter * 1e9 / n);
    ctx.layer("kernel.detect_skew_s", detect);
}

/// Isolated wire cost of `requests` under `op`: per request, the median
/// encode (`wire_json` + `write_frame` into memory) and decode
/// (`read_frame` + `JoinRequest::from_json`) time in seconds; and the total
/// frame bytes of one pass.
pub fn wire_cost(requests: &[JoinRequest], op: &str) -> (Vec<f64>, Vec<f64>, usize) {
    let mut encode = Vec::new();
    let mut decode = Vec::new();
    let mut bytes = 0;
    for request in requests {
        let mut frame = Vec::new();
        encode.push(time_median(|| {
            frame.clear();
            write_frame(&mut frame, &request.wire_json(op)).expect("frame fits in memory");
        }));
        bytes += frame.len();
        decode.push(time_median(|| {
            let json = read_frame(&mut frame.as_slice()).expect("frame just written");
            std::hint::black_box(JoinRequest::from_json(&json, "bench").expect("valid request"));
        }));
    }
    (encode, decode, bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expected_matches_is_the_sum_of_frequency_products() {
        let r = Relation::from_keys(&[1, 1, 2, 5, 7, 7, 7]);
        let s = Relation::from_keys(&[7, 1, 7, 3, 1, 1]);
        // key 1: 2·3, key 7: 3·2, keys 2, 3, 5 unmatched.
        assert_eq!(expected_matches(r.tuples(), s.tuples()), 12);
        assert_eq!(expected_matches(&[], s.tuples()), 0);
    }
}
