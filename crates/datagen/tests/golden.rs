//! Golden digests of the paper workload.
//!
//! The pinned values were computed with the original per-tuple
//! full-array binary search on a single thread. Any change to the sampler,
//! the RNG or the way generation is split across threads that alters one
//! generated tuple changes a digest and fails this test.

use skewjoin_common::Relation;
use skewjoin_datagen::{PaperWorkload, WorkloadSpec};

/// FNV-1a over every tuple's little-endian `(key, payload)` bytes.
fn fnv1a(hash: u64, rel: &Relation) -> u64 {
    rel.iter()
        .flat_map(|t| {
            t.key
                .to_le_bytes()
                .into_iter()
                .chain(t.payload.to_le_bytes())
        })
        .fold(hash, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
        })
}

fn digest(w: &PaperWorkload) -> u64 {
    fnv1a(fnv1a(0xCBF2_9CE4_8422_2325, &w.r), &w.s)
}

#[test]
fn paper_workload_digests_are_pinned() {
    for (theta, expected) in [
        (0.0, 0x5eb1_627b_5238_e657u64),
        (0.75, 0xfa4f_a6be_8c1a_67db),
        (1.0, 0x21a1_9295_3b9d_3d64),
    ] {
        let w = PaperWorkload::generate(WorkloadSpec::paper(1 << 16, theta, 42));
        let got = digest(&w);
        assert_eq!(
            got, expected,
            "theta={theta}: digest {got:#018x}, pinned {expected:#018x}"
        );
    }
}
