//! Output-sink semantics across the join implementations: materialized
//! result sets equal the reference result set exactly (not just by count),
//! and the volcano ring behaves as §III describes.

use std::collections::{BTreeMap, HashMap};

use skewjoin::common::sink::{merge_key_counts, tuple_mix, OutputTuple};
use skewjoin::common::{CountingSink, KeyCountSink, MaterializeSink, Tuple, VolcanoSink};
use skewjoin::cpu::{cbase_join, csh_join, npj_join, reference_join, CpuJoinConfig};
use skewjoin::datagen::Rng;
use skewjoin::gpu::{gbase_join, gsh_join, GpuJoinConfig};
use skewjoin::prelude::*;

/// Multiset of output tuples, for exact result-set comparison.
fn multiset(results: impl IntoIterator<Item = OutputTuple>) -> HashMap<OutputTuple, usize> {
    let mut m = HashMap::new();
    for t in results {
        *m.entry(t).or_insert(0) += 1;
    }
    m
}

fn reference_set(r: &Relation, s: &Relation) -> HashMap<OutputTuple, usize> {
    let mut sink = MaterializeSink::new();
    reference_join(r, s, &mut sink);
    multiset(sink.into_results())
}

fn workload() -> (Relation, Relation) {
    let w = PaperWorkload::generate(WorkloadSpec::paper(1500, 0.9, 21));
    (w.r, w.s)
}

#[test]
fn cbase_materialized_set_matches_reference() {
    let (r, s) = workload();
    let expected = reference_set(&r, &s);
    let outcome = cbase_join(&r, &s, &CpuJoinConfig::with_threads(3), |_| {
        MaterializeSink::new()
    })
    .unwrap();
    let got = multiset(outcome.sinks.into_iter().flat_map(|s| s.into_results()));
    assert_eq!(got, expected);
}

#[test]
fn csh_materialized_set_matches_reference() {
    let (r, s) = workload();
    let expected = reference_set(&r, &s);
    let outcome = csh_join(&r, &s, &CpuJoinConfig::with_threads(3), |_| {
        MaterializeSink::new()
    })
    .unwrap();
    let got = multiset(outcome.sinks.into_iter().flat_map(|s| s.into_results()));
    assert_eq!(got, expected);
}

#[test]
fn npj_materialized_set_matches_reference() {
    let (r, s) = workload();
    let expected = reference_set(&r, &s);
    let outcome = npj_join(&r, &s, &CpuJoinConfig::with_threads(3), |_| {
        MaterializeSink::new()
    })
    .unwrap();
    let got = multiset(outcome.sinks.into_iter().flat_map(|s| s.into_results()));
    assert_eq!(got, expected);
}

#[test]
fn gpu_materialized_sets_match_reference() {
    let (r, s) = workload();
    let expected = reference_set(&r, &s);
    let cfg = GpuJoinConfig {
        spec: DeviceSpec::tiny(1 << 26),
        block_dim: 64,
        table_capacity: Some(128),
        ..GpuJoinConfig::default()
    };
    let outcome = gbase_join(&r, &s, &cfg, |_| MaterializeSink::new()).unwrap();
    let got = multiset(outcome.sinks.into_iter().flat_map(|s| s.into_results()));
    assert_eq!(got, expected, "Gbase");

    let outcome = gsh_join(&r, &s, &cfg, |_| MaterializeSink::new()).unwrap();
    let got = multiset(outcome.sinks.into_iter().flat_map(|s| s.into_results()));
    assert_eq!(got, expected, "GSH");
}

#[test]
fn volcano_ring_bounds_memory_but_counts_everything() {
    let (r, s) = workload();
    let capacity = 16;
    let outcome = csh_join(&r, &s, &CpuJoinConfig::with_threads(2), |_| {
        VolcanoSink::new(capacity)
    })
    .unwrap();
    let mut truth = CountingSink::new();
    let ref_stats = reference_join(&r, &s, &mut truth);
    assert_eq!(outcome.stats.result_count, ref_stats.result_count);
    for sink in &outcome.sinks {
        assert!(sink.buffer().len() <= capacity);
    }
}

#[test]
fn per_thread_sinks_partition_the_output() {
    // The sum of per-sink counts is the total; no result is emitted twice
    // across threads (already implied by count+checksum equality, but make
    // the per-sink view explicit).
    let (r, s) = workload();
    let outcome = csh_join(&r, &s, &CpuJoinConfig::with_threads(4), |_| {
        CountingSink::new()
    })
    .unwrap();
    let sum: u64 = outcome.sinks.iter().map(|s| s.count()).sum();
    assert_eq!(sum, outcome.stats.result_count);
    assert_eq!(outcome.sinks.len(), 4);
}

/// The key sequence shapes the run-length [`KeyCountSink`] must not care
/// about: random interleavings over a few keys, strict alternation, one
/// key flooding the sink, and long runs broken by single strays.
fn key_sequence(rng: &mut Rng, shape: usize, len: usize) -> Vec<u32> {
    let (a, b) = (rng.next_u32(), rng.next_u32());
    (0..len)
        .map(|i| match shape {
            0 => rng.below(4) as u32,
            1 => rng.next_u32(),
            2 => [a, b][i % 2],
            3 => a,
            _ => {
                if rng.below(16) == 0 {
                    b
                } else {
                    a
                }
            }
        })
        .collect()
}

#[test]
fn run_length_key_counts_equal_a_per_emit_map() {
    for seed in 0..20u64 {
        let mut rng = Rng::seed_from_u64(seed);
        for shape in 0..5 {
            let len = rng.below(600);
            let keys = key_sequence(&mut rng, shape, len);
            // Two sinks share the stream, as two workers would.
            let mut sinks = [KeyCountSink::new(), KeyCountSink::new()];
            let mut reference = BTreeMap::new();
            let mut checksum = 0u64;
            let mut emitted = 0u64;
            let mut i = 0;
            while i < keys.len() {
                let sink = &mut sinks[rng.below(2)];
                let key = keys[i];
                let s_payload = rng.next_u32();
                // Consecutive equal keys sometimes go through the bulk
                // `emit_r_run` path, as CSH's skew emission does.
                let run = keys[i..].iter().take_while(|&&k| k == key).count();
                let take = if rng.below(2) == 0 { 1 } else { run };
                if take == 1 {
                    let r_payload = rng.next_u32();
                    sink.emit(key, r_payload, s_payload);
                    checksum = checksum.wrapping_add(tuple_mix(key, r_payload, s_payload));
                } else {
                    let r: Vec<Tuple> =
                        (0..take).map(|_| Tuple::new(key, rng.next_u32())).collect();
                    sink.emit_r_run(key, &r, s_payload);
                    for t in &r {
                        checksum = checksum.wrapping_add(tuple_mix(key, t.payload, s_payload));
                    }
                }
                *reference.entry(key).or_insert(0u64) += take as u64;
                emitted += take as u64;
                i += take;
            }
            let what = format!("seed {seed}, shape {shape}");
            assert_eq!(merge_key_counts(&sinks), reference, "{what}");
            let mut summed = BTreeMap::new();
            for sink in &sinks {
                for (key, count) in sink.counts() {
                    *summed.entry(key).or_insert(0u64) += count;
                }
            }
            assert_eq!(summed, reference, "{what}");
            let total: u64 = sinks.iter().map(|s| s.count()).sum();
            assert_eq!(total, emitted, "{what}");
            let sum = sinks
                .iter()
                .fold(0u64, |acc, s| acc.wrapping_add(s.checksum()));
            assert_eq!(sum, checksum, "{what}");
        }
    }
}
