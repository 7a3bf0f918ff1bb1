#![allow(clippy::field_reassign_with_default)]

//! End-to-end planner behaviour: algorithm selection tracks the sampled
//! skew, and executed plans agree with direct runs on both devices.

use std::time::Duration;

use skewjoin::prelude::*;

#[test]
fn planner_tracks_skew_level() {
    let opts = PlannerOptions::default();
    let skewed = PaperWorkload::generate(WorkloadSpec::paper(1 << 14, 1.0, 1));
    let uniform = PaperWorkload::generate(WorkloadSpec::paper(1 << 14, 0.0, 2));

    let p_skew = JoinPlan::plan(&skewed.r, &skewed.s, &opts);
    assert_eq!(p_skew.algorithm, Algorithm::Cpu(CpuAlgorithm::Csh));
    assert!(p_skew.skewed_keys_estimated > 0);

    let p_flat = JoinPlan::plan(&uniform.r, &uniform.s, &opts);
    assert_eq!(p_flat.algorithm, Algorithm::Cpu(CpuAlgorithm::Cbase));
}

#[test]
fn gpu_plan_executes_and_matches_cpu_plan() {
    let w = PaperWorkload::generate(WorkloadSpec::paper(4096, 1.0, 3));

    let mut cpu_opts = PlannerOptions::default();
    cpu_opts.cpu = CpuJoinConfig::with_threads(2);
    let cpu_plan = JoinPlan::plan(&w.r, &w.s, &cpu_opts);
    let cpu_stats = cpu_plan
        .execute(&w.r, &w.s, &cpu_opts, SinkSpec::Count)
        .unwrap();

    let mut gpu_opts = PlannerOptions::default();
    gpu_opts.device = TargetDevice::Gpu;
    gpu_opts.gpu = GpuJoinConfig {
        spec: DeviceSpec::tiny(1 << 26),
        block_dim: 64,
        ..GpuJoinConfig::default()
    };
    let gpu_plan = JoinPlan::plan(&w.r, &w.s, &gpu_opts);
    assert_eq!(gpu_plan.algorithm, Algorithm::Gpu(GpuAlgorithm::Gsh));
    let gpu_stats = gpu_plan
        .execute(&w.r, &w.s, &gpu_opts, SinkSpec::Count)
        .unwrap();

    assert_eq!(cpu_stats.result_count, gpu_stats.result_count);
    assert_eq!(cpu_stats.checksum, gpu_stats.checksum);
}

#[test]
fn plan_reason_is_informative() {
    let w = PaperWorkload::generate(WorkloadSpec::paper(1 << 14, 1.0, 5));
    let plan = JoinPlan::plan(&w.r, &w.s, &PlannerOptions::default());
    assert!(
        plan.reason.contains("skewed key"),
        "reason: {}",
        plan.reason
    );
}

#[test]
fn planned_csh_beats_planned_cbase_on_heavy_skew() {
    // Not a micro-benchmark — just a sanity check that the planner's choice
    // is directionally right at heavy skew and moderate size. One cold run
    // of each is at the mercy of host noise, so the two algorithms run
    // interleaved and their fastest runs are compared.
    const RUNS: usize = 5;
    let w = PaperWorkload::generate(WorkloadSpec::paper(1 << 16, 1.0, 7));
    let cfg = JoinConfig::from(CpuJoinConfig::with_threads(4));
    let run = |algo| skewjoin::run_join(Algorithm::Cpu(algo), &w.r, &w.s, &cfg, SinkSpec::Count);
    let (mut csh_best, mut cbase_best) = (Duration::MAX, Duration::MAX);
    for _ in 0..RUNS {
        let csh = run(CpuAlgorithm::Csh).unwrap();
        let cbase = run(CpuAlgorithm::Cbase).unwrap();
        assert_eq!(csh.result_count, cbase.result_count);
        csh_best = csh_best.min(csh.total_time());
        cbase_best = cbase_best.min(cbase.total_time());
    }
    assert!(
        csh_best < cbase_best,
        "CSH {csh_best:?} not faster than Cbase {cbase_best:?} at zipf 1.0 (best of {RUNS})"
    );
}
