//! Property test for the negative-lookup invalidation protocol.
//!
//! 10 000 seeded interleavings of lookup-miss / create / rename / unlink
//! (plus read-through caching and write coalescing) against one hot
//! directory, checked after every step against a flat reference model:
//!
//! * the proxy never holds a *stale negative* — a name cached as absent
//!   that the reference says exists, and
//! * an unlinked inode never *leaks* — no proxy table still mentions it.

use std::collections::BTreeMap;

use dynmds_event::{SimRng, SimTime};
use dynmds_namespace::InodeId;
use dynmds_proxy::{ProxyConfig, ProxyCore};

const SEEDS: u64 = 10_000;
const OPS_PER_SEED: usize = 40;
const NAMES: [&str; 8] = ["a", "b", "c", "d", "e", "f", "g", "h"];

fn check_no_stale_negative(p: &ProxyCore, dir: InodeId, reference: &BTreeMap<String, u64>) {
    for name in NAMES {
        if p.neg_contains(dir, name) {
            assert!(
                !reference.contains_key(name),
                "stale negative: '{name}' cached as absent but exists in the reference"
            );
        }
    }
}

#[test]
fn never_stale_negative_never_leaked_entry() {
    let dir = InodeId(1);
    let cfg = ProxyConfig { count: 1, ..Default::default() };
    for seed in 0..SEEDS {
        let mut rng = SimRng::seed_from_u64(seed ^ 0x9E6_1000);
        let mut p = ProxyCore::new(&cfg);
        // Reference truth for the hot directory: name -> inode id.
        let mut reference: BTreeMap<String, u64> = BTreeMap::new();
        let mut next_id = 100u64;
        let mut unlinked: Vec<u64> = Vec::new();

        for step in 0..OPS_PER_SEED {
            let name = NAMES[rng.below(NAMES.len() as u64) as usize];
            match rng.below(100) {
                // Lookup: a cached negative answers at the proxy; an
                // authority miss teaches the proxy the negative.
                0..=39 => {
                    if p.neg_lookup(dir, name) {
                        assert!(
                            !reference.contains_key(name),
                            "seed {seed} step {step}: proxy served a stale negative for '{name}'"
                        );
                    } else if !reference.contains_key(name) {
                        p.note_negative(dir, name);
                    }
                }
                // Create: materializes the name, must kill its negative.
                40..=59 => {
                    if !reference.contains_key(name) {
                        reference.insert(name.to_owned(), next_id);
                        next_id += 1;
                        p.invalidate_name(dir, name);
                    }
                }
                // Rename: the new name materializes, the old one vanishes.
                60..=74 => {
                    let new_name = NAMES[rng.below(NAMES.len() as u64) as usize];
                    if let Some(&id) = reference.get(name) {
                        if !reference.contains_key(new_name) {
                            reference.remove(name);
                            reference.insert(new_name.to_owned(), id);
                            p.invalidate_name(dir, new_name);
                            p.dir_mutated(dir);
                        }
                    }
                }
                // Unlink: the inode dies; nothing may still mention it.
                75..=89 => {
                    if let Some(id) = reference.remove(name) {
                        p.forget_item(InodeId(id));
                        p.dir_mutated(dir);
                        unlinked.push(id);
                    }
                }
                // Hot-path traffic against a live entry: read-through
                // caching and write coalescing build up state that a later
                // unlink must fully purge.
                _ => {
                    if let Some(&id) = reference.get(name) {
                        p.observe(InodeId(id), SimTime::from_micros(step as u64 * 50));
                        if rng.chance(0.5) {
                            p.note_cached(InodeId(id));
                        } else {
                            p.absorb_write(InodeId(id));
                        }
                    }
                }
            }

            check_no_stale_negative(&p, dir, &reference);
            for &id in &unlinked {
                assert!(
                    !p.mentions(InodeId(id)),
                    "seed {seed} step {step}: unlinked inode {id} leaked in proxy state"
                );
            }
        }
    }
}
