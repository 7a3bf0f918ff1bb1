//! `skewbench`: the skewjoin benchmark.
//!
//! ```sh
//! cargo run --release --manifest-path skewbench/Cargo.toml -- \
//!     --workload <uniform|skewed|service|cluster|all> [--seed 42] \
//!     [--seconds 15] [--trace 0|1]
//! ```
//!
//! One process runs the chosen workload (or all four), checks every answer
//! and prints a report: each end-to-end metric under its name, with unit,
//! clock and sample count, then the host fingerprint. The last line of
//! standard output is one JSON object (`correct`, `attempted`, `failed`,
//! `metrics`): with `--trace 0` the end-to-end gates, with `--trace 1` the
//! per-layer metrics of a separate traced run, whose spans are also written
//! to `skewbench/out/`. A wrong or failed answer exits with code 1.
//! See `skewbench/README.md` for the workloads and the metric map.

mod cluster;
mod joins;
mod layers;
mod measure;
mod service;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

use measure::{Clock, Tracer};

/// CPU threads and client connections each workload may use: the host's
/// core count the benchmark was designed on.
pub const THREADS: usize = 2;

/// Complete set-ups per run, each followed by its share of the timed
/// window; `setup_s` is their median.
pub const SETUPS: usize = 3;

/// The end-to-end gates of the JSON line, in `BENCHMARK.json` order. The
/// gate contract needs every metric on every workload, so the gates are
/// named by role; each workload's report says which of its metrics fills
/// which gate.
pub const GATES: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("wait_p50_ms", "ms"),
];

/// Per-layer metrics of the traced run, in `BENCHMARK.json` order. Every
/// workload emits all of them; a layer the workload does not exercise
/// reads 0.
pub const LAYERS: &[(&str, &str)] = &[
    ("datagen.generate_s", "s"),
    ("core.csh.unattributed_s", "s"),
    ("core.cbase.unattributed_s", "s"),
    ("cpu.csh.sample_s", "s"),
    ("cpu.csh.partition_r_s", "s"),
    ("cpu.csh.partition_s_s", "s"),
    ("cpu.csh.nm_join_s", "s"),
    ("cpu.cbase.partition_s", "s"),
    ("cpu.cbase.join_s", "s"),
    ("cpu.csh.skewed_keys", "count"),
    ("cpu.csh.skew_result_share", "ratio"),
    ("cpu.steal_success_ratio", "ratio"),
    ("kernel.hash_ns_per_tuple", "ns"),
    ("kernel.radix_partition_ns_per_tuple", "ns"),
    ("kernel.detect_skew_s", "s"),
    ("gpu.gsh.partition_ms", "ms"),
    ("gpu.gsh.nm_join_ms", "ms"),
    ("gpu.gsh.skew_join_ms", "ms"),
    ("gpu.gbase.partition_ms", "ms"),
    ("gpu.gbase.join_ms", "ms"),
    ("gsh_sim_ms", "ms"),
    ("gbase_sim_ms", "ms"),
    ("service.queue_wait_ms", "ms"),
    ("service.memory_waits", "count"),
    ("service.exec_ms", "ms"),
    ("service.overhead_ms", "ms"),
    ("service.plan_cache_hit_ratio", "ratio"),
    ("service.governor_peak_mb", "MiB"),
    ("protocol.encode_ms", "ms"),
    ("protocol.decode_ms", "ms"),
    ("protocol.bytes_per_tuple", "B"),
    ("cluster.route_s", "s"),
    ("cluster.dispatch_s", "s"),
    ("cluster.shard_exec_s", "s"),
    ("cluster.ship_merge_s", "s"),
    ("cluster.encode_s", "s"),
    ("cluster.hot_keys", "count"),
    ("cluster.replicated_build_copies", "count"),
    ("cluster.split_probe_tuples", "count"),
    ("cluster.max_shard_probe_share", "ratio"),
    ("cluster.single_node_csh_s", "s"),
    ("trace.wait_p50_ms", "ms"),
];

/// One end-to-end metric of a workload's report.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub clock: Clock,
    pub value: f64,
    pub samples: usize,
    /// Smallest and largest sample of a timing.
    pub range: Option<(f64, f64)>,
    /// The JSON gate this metric fills, and the factor converting its unit
    /// to the gate's.
    pub gate: Option<(&'static str, f64)>,
}

/// State one workload run fills in.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub tracer: Tracer,
    pub setup_s: f64,
    pub peak_rss_mb: f64,
    pub attempted: u64,
    pub failures: Vec<String>,
    pub report: Vec<Metric>,
    pub layers: BTreeMap<&'static str, f64>,
}

impl Ctx {
    fn new(seed: u64, seconds: f64, trace: bool) -> Self {
        Self {
            seed,
            seconds,
            tracer: Tracer::new(trace),
            setup_s: 0.0,
            peak_rss_mb: 0.0,
            attempted: 0,
            failures: Vec::new(),
            report: Vec::new(),
            layers: BTreeMap::new(),
        }
    }

    /// Counts one checked operation; `ok == false` records a failure.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }

    /// Counts one operation that errored, was rejected or was cancelled.
    pub fn fail(&mut self, what: String) {
        self.check(false, || what);
    }

    /// A report-only metric: a count, rate or simulated time.
    pub fn metric(
        &mut self,
        name: &'static str,
        unit: &'static str,
        clock: Clock,
        value: f64,
        samples: usize,
    ) {
        self.report.push(Metric {
            name,
            unit,
            clock,
            value,
            samples,
            range: None,
            gate: None,
        });
    }

    /// A wall-clock timing: the median of `seconds`, scaled by `scale` to
    /// `unit`, with its sample count and range.
    pub fn timing(
        &mut self,
        name: &'static str,
        unit: &'static str,
        seconds: &[f64],
        scale: f64,
        gate: Option<(&'static str, f64)>,
    ) {
        let min = seconds.iter().copied().fold(f64::INFINITY, f64::min);
        let max = seconds.iter().copied().fold(0.0, f64::max);
        self.report.push(Metric {
            name,
            unit,
            clock: Clock::Wall,
            value: measure::median(seconds) * scale,
            samples: seconds.len(),
            range: (!seconds.is_empty()).then_some((min * scale, max * scale)),
            gate,
        });
    }

    /// Measures a workload in [`SETUPS`] rounds. Each round sets up from
    /// nothing (`set_up`), then measures `1/SETUPS` of the timed window on
    /// what it built (`window`, given its share in seconds), so each set-up
    /// and its heap layout is sampled. Each round but the last is torn down
    /// (`close`) before the next starts; the last one's build is returned
    /// for the checks that follow the windows. Sets `setup_s` to the median
    /// set-up time, and `peak_rss_mb` to the smallest of the rounds' peak
    /// resident sets: a round can start on heap the allocator kept from an
    /// earlier round, or peak on a transient overlap of buffers, and either
    /// varies from run to run. A set-up that returns `None` (it failed and
    /// said why) ends the run.
    pub fn rounds<S, T>(
        &mut self,
        state: &mut S,
        set_up: impl Fn(&mut Ctx, &mut S) -> Option<T>,
        window: impl Fn(&mut Ctx, &mut S, &mut T, f64),
        close: impl Fn(T),
    ) -> Option<T> {
        let mut times = Vec::new();
        let mut peaks = Vec::new();
        let mut kept = None;
        for _ in 0..SETUPS {
            if let Some(old) = kept.take() {
                close(old);
            }
            reset_peak_rss();
            let start = Instant::now();
            let mut built = set_up(self, state)?;
            times.push(start.elapsed().as_secs_f64());
            window(self, state, &mut built, self.seconds / SETUPS as f64);
            peaks.push(peak_rss_mb());
            kept = Some(built);
        }
        self.setup_s = measure::median(&times);
        self.peak_rss_mb = peaks.into_iter().fold(f64::INFINITY, f64::min);
        kept
    }

    /// Sets a per-layer metric (must be one of [`LAYERS`]).
    pub fn layer(&mut self, name: &'static str, value: f64) {
        debug_assert!(LAYERS.iter().any(|(n, _)| *n == name), "{name}");
        self.layers.insert(name, value);
    }

    /// Sets `metric` to the median duration of the spans called `span`,
    /// scaled by `scale` (e.g. 1e3 for milliseconds).
    pub fn layer_from_spans(&mut self, metric: &'static str, span: &str, scale: f64) {
        let v = self.tracer.median(span) * scale;
        self.layer(metric, v);
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 42,
        seconds: 15.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !args.seconds.is_finite() || args.seconds <= 0.0 {
                    return Err("--seconds must be a positive number".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

const WORKLOADS: &[&str] = &["uniform", "skewed", "service", "cluster"];

fn run_workload(name: &str, args: &Args) -> Ctx {
    let mut ctx = Ctx::new(args.seed, args.seconds, args.trace);
    match name {
        "uniform" => joins::run(&mut ctx, 1 << 22, 0.0),
        "skewed" => joins::run(&mut ctx, 1 << 18, 1.0),
        "service" => service::run(&mut ctx),
        "cluster" => cluster::run(&mut ctx),
        _ => unreachable!("workload names are checked in main"),
    }
    ctx
}

/// Restarts the kernel's peak-resident-set (`VmHWM`) count from the current
/// resident set. Where the kernel refuses, peaks stay cumulative.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// `VmHWM` (peak resident set) of this process, in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `nproc`, CPU model and memory of the host, for every report.
fn host_fingerprint() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let read = |path: &str, key: &str| {
        std::fs::read_to_string(path)
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with(key))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|v| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into())
    };
    format!(
        "nproc={nproc} cpu=\"{}\" mem=\"{}\"",
        read("/proc/cpuinfo", "model name"),
        read("/proc/meminfo", "MemTotal")
    )
}

fn print_report(name: &str, ctx: &Ctx, args: &Args) {
    let mode = if args.trace { "traced" } else { "untraced" };
    println!("== workload {name} seed={} {mode} run", args.seed);
    let line =
        |n: &str, v: f64, unit: &str, clock: &str, samples: usize, range: Option<(f64, f64)>| {
            let range = range.map_or(String::new(), |(lo, hi)| format!(" range={lo:.6}..{hi:.6}"));
            println!(
                "metric {n:<24} {v:>14.6} {unit:<6} clock={clock:<9} samples={samples}{range}"
            );
        };
    let (wall, none) = (Clock::Wall.name(), Clock::None.name());
    line("setup_s", ctx.setup_s, "s", wall, SETUPS, None);
    line("peak_rss_mb", ctx.peak_rss_mb, "MiB", none, SETUPS, None);
    let ratio = ctx.failures.len() as f64 / ctx.attempted.max(1) as f64;
    line(
        "failed_ratio",
        ratio,
        "ratio",
        "none",
        ctx.attempted as usize,
        None,
    );
    for m in &ctx.report {
        line(m.name, m.value, m.unit, m.clock.name(), m.samples, m.range);
    }
    if args.trace {
        for (n, unit) in LAYERS {
            let v = ctx.layers.get(n).copied().unwrap_or(0.0);
            println!("layer  {n:<36} {v:>14.6} {unit}");
        }
    }
    for f in &ctx.failures {
        println!("FAILED {f}");
    }
}

/// The gate values of one workload run, in [`GATES`] order. A gate the
/// run did not fill (it stopped early) reads 0 and counts as a failure.
fn gate_values(ctx: &mut Ctx) -> Vec<(&'static str, &'static str, f64)> {
    let mut values = Vec::new();
    for &(gate, unit) in GATES {
        let value = match gate {
            "setup_s" => Some(ctx.setup_s),
            "peak_rss_mb" => Some(ctx.peak_rss_mb),
            _ => ctx
                .report
                .iter()
                .find_map(|m| m.gate.filter(|g| g.0 == gate).map(|g| m.value * g.1)),
        };
        if value.is_none() {
            ctx.fail(format!("the run reported no {gate}"));
        }
        values.push((gate, unit, value.unwrap_or(0.0)));
    }
    values
}

fn layer_values(ctx: &Ctx) -> Vec<(&'static str, &'static str, f64)> {
    LAYERS
        .iter()
        .map(|&(n, unit)| (n, unit, ctx.layers.get(n).copied().unwrap_or(0.0)))
        .collect()
}

fn json_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, &str, f64)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, unit, v)| format!("\"{n}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"))
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn write_spans(name: &str, args: &Args, ctx: &Ctx) {
    let dir = std::path::Path::new("skewbench/out");
    let path = dir.join(format!("spans-{name}-seed{}.json", args.seed));
    match std::fs::create_dir_all(dir).and_then(|_| std::fs::write(&path, ctx.tracer.to_json())) {
        Ok(()) => println!(
            "spans: {} ({} spans)",
            path.display(),
            ctx.tracer.spans().len()
        ),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let names: Vec<&str> = match args.workload.as_str() {
        "all" => WORKLOADS.to_vec(),
        w if WORKLOADS.contains(&w) => vec![w],
        w => {
            eprintln!("error: --workload must be one of {WORKLOADS:?} or \"all\", not {w:?}");
            return ExitCode::from(2);
        }
    };
    println!("host: {}", host_fingerprint());
    let started = Instant::now();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut metrics = Vec::new();
    for name in &names {
        let mut ctx = run_workload(name, &args);
        let values = if args.trace {
            layer_values(&ctx)
        } else {
            gate_values(&mut ctx)
        };
        print_report(name, &ctx, &args);
        if args.trace {
            write_spans(name, &args, &ctx);
        }
        attempted += ctx.attempted;
        failed += ctx.failures.len() as u64;
        let prefix = if names.len() > 1 {
            format!("{name}.")
        } else {
            String::new()
        };
        metrics.extend(
            values
                .into_iter()
                .map(|(n, u, v)| (format!("{prefix}{n}"), u, v)),
        );
    }
    println!("elapsed_s {:.3}", started.elapsed().as_secs_f64());
    let correct = failed == 0 && attempted > 0;
    println!("{}", json_line(correct, attempted.max(1), failed, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric lists here and in `BENCHMARK.json` must agree, name for
    /// name and unit for unit.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let json = skewjoin::common::Json::parse(&text).expect("valid JSON");
        let names = |key: &str| -> Vec<(String, String)> {
            json.get(key)
                .and_then(|v| v.as_array())
                .expect("metric list")
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(|v| v.as_str()).expect(k).to_string();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names("end_to_end"), own(GATES));
        assert_eq!(names("per_layer"), own(LAYERS));
    }

    #[test]
    fn json_line_has_the_contract_keys() {
        let line = json_line(true, 3, 0, &[("setup_s".into(), "s", 0.5)]);
        let json = skewjoin::common::Json::parse(&line).expect("valid JSON");
        assert_eq!(json.get("attempted").and_then(|v| v.as_u64()), Some(3));
        let m = json
            .get("metrics")
            .and_then(|m| m.get("setup_s"))
            .expect("metric");
        assert_eq!(m.get("unit").and_then(|v| v.as_str()), Some("s"));
    }
}
