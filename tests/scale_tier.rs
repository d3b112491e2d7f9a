//! Scale-tier integration properties (ROADMAP item 1).
//!
//! The unit tests in `dynmds-namespace` pin the generated tree's shape at
//! toy sizes; these pin it at experiment sizes and check the million-user
//! spec the full tier runs against. Both are gated behind `slow-tests`
//! (generating a whole snapshot materializes every inode, which is exactly
//! the cost the streaming path exists to avoid).

use dynmds::namespace::{Namespace, NamespaceSpec, StreamingGenerator};

/// FNV-1a over every live id's parent, name, file type, permissions and
/// size, read through the public API.
fn shape_digest(ns: &Namespace) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut feed = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    for id in ns.live_ids() {
        let ino = ns.inode(id).unwrap();
        feed(&id.0.to_le_bytes());
        feed(&ns.parent(id).unwrap().map_or(u64::MAX, |p| p.0).to_le_bytes());
        feed(ns.name(id).unwrap().as_bytes());
        feed(&[0xff, ino.ftype as u8]);
        feed(&ino.perm.uid.to_le_bytes());
        feed(&ino.perm.mode.to_le_bytes());
        feed(&ino.size.to_le_bytes());
    }
    h
}

#[test]
#[cfg_attr(
    not(feature = "slow-tests"),
    ignore = "materializes 6x10^5 inodes; run via --features slow-tests or scripts/test_full.sh"
)]
fn experiment_sized_shapes_are_pinned() {
    for (seed, want) in
        [(3u64, 0x1085_552f_5688_3aec), (17, 0xc260_22dc_042b_cdc1), (4242, 0x32ae_eb80_023a_2449)]
    {
        let snap = NamespaceSpec::with_target_items(2_000, 200_000, seed).generate();
        assert_eq!(shape_digest(&snap.ns), want, "seed {seed}");
    }
}

#[test]
#[cfg_attr(
    not(feature = "slow-tests"),
    ignore = "counts a 10^8-inode logical namespace (seconds); run via --features slow-tests"
)]
fn full_tier_spec_is_huge_logically_and_tiny_materialized() {
    // The full tier's own spec: 10^6 users, 10^8-inode target.
    let spec = NamespaceSpec::with_target_items(1_000_000, 100_000_000, 42 ^ 0xF5);
    let mut generator = StreamingGenerator::new(spec);
    for u in 0..64 {
        generator.materialize_user(u);
    }
    let materialized = generator.ns().total_items();
    let logical = generator.logical_items();
    assert!(logical >= 100_000_000, "logical namespace undersized: {logical}");
    assert!(materialized < 20_000, "64 users materialized {materialized} inodes");
    // The untouched 999,936 users must cost no namespace heap: the
    // footprint is bounded by what was actually materialized.
    let mut snap = generator.into_snapshot();
    snap.ns.shrink_to_fit();
    let bytes = snap.ns.heap_bytes();
    assert!(
        (bytes as f64) < materialized as f64 * 80.0,
        "{bytes} heap bytes for {materialized} materialized inodes"
    );
}
