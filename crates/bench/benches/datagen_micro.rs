//! Micro-benchmarks of the workload generators: per-tuple zipf draws
//! (guide-table interval search), full table generation, the graph generator,
//! and relation I/O.

use skewjoin::datagen::graph::PowerLawGraph;
use skewjoin::datagen::Rng;
use skewjoin::prelude::*;
use skewjoin_bench::micro::{bench, black_box, group};

fn bench_zipf_draw() {
    group("zipf_draw");
    for &theta in &[0.0f64, 1.0] {
        let dist = ZipfWorkload::new(1 << 20, theta, 1);
        let mut rng = Rng::seed_from_u64(7);
        // 10k draws per iteration: a single draw is nanoseconds.
        bench(&format!("draw_10k/{theta}"), 50, || {
            let mut acc = 0u64;
            for _ in 0..10_000 {
                acc = acc.wrapping_add(u64::from(dist.draw(&mut rng)));
            }
            black_box(acc)
        });
    }
}

fn bench_table_generation() {
    group("table_generation");
    let dist = ZipfWorkload::new(1 << 18, 0.9, 2);
    bench("zipf_table_256k", 5, || {
        dist.generate_table(1 << 18, black_box(3))
    });
}

fn bench_graph_generation() {
    group("graph_generation");
    bench("powerlaw_100k_edges", 5, || {
        PowerLawGraph::generate(10_000, 100_000, 1.0, black_box(5))
    });
}

fn bench_relation_io() {
    use skewjoin::datagen::io;
    group("relation_io");
    let dist = ZipfWorkload::new(1 << 16, 0.5, 9);
    let rel = dist.generate_table(1 << 16, 10);
    bench("binary_serialize_64k", 20, || io::to_bytes(black_box(&rel)));
    let bytes = io::to_bytes(&rel);
    bench("binary_deserialize_64k", 20, || {
        io::from_bytes(black_box(&bytes)).unwrap()
    });
}

fn main() {
    bench_zipf_draw();
    bench_table_generation();
    bench_graph_generation();
    bench_relation_io();
}
