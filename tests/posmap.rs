//! Position-map conformance: the flat table and the recursive ORAM map
//! implement one contract. Every scripted and randomized call sequence
//! must produce identical answers from both, and whole engines built on
//! either map must be response-identical — at one shard and at four.

use horam::core::shard::{ShardedConfig, ShardedOram};
use horam::core::{build_posmap, PositionMap};
use horam::prelude::*;

fn config(capacity: u64, seed: u64) -> HOramConfig {
    HOramConfig::new(capacity, 8, (capacity / 4).max(16)).with_seed(seed)
}

/// Both implementations over the same geometry, boxed behind the trait.
///
/// Construction state is owned by the storage layer (both maps start with
/// every block at slot 0 and every slot unowned, and the layer's initial
/// layout overwrites both) — so conformance scripts first normalize
/// through the public contract: one full-image rebuild placing block `i`
/// at slot `i`.
fn both(capacity: u64, seed: u64) -> Vec<Box<dyn PositionMap>> {
    let master = MasterKey::from_bytes([0x77; 32]);
    let flat = build_posmap(&config(capacity, seed), &master, false).expect("flat builds");
    let recursive = build_posmap(
        &config(capacity, seed).with_recursive_posmap(4),
        &master,
        false,
    )
    .expect("recursive builds");
    let mut maps = vec![flat, recursive];
    let total_slots = maps[0].total_slots() as usize;
    let mut image: Vec<Option<BlockId>> = vec![None; total_slots];
    for id in 0..capacity {
        image[id as usize] = Some(BlockId(id));
    }
    for map in &mut maps {
        map.rebuild_all(&image).expect("normalizing rebuild");
    }
    maps
}

/// Runs one mutating step against a map and returns its observable
/// outcome, so scripted sequences can be compared across implementations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Step {
    Place(u64, u64),
    TakeOwner(u64),
    Location(u64),
}

fn apply(map: &mut dyn PositionMap, step: Step) -> String {
    match step {
        Step::Place(id, slot) => format!("{:?}", map.place(BlockId(id), slot)),
        Step::TakeOwner(slot) => format!("{:?}", map.take_owner(slot)),
        Step::Location(id) => format!("{:?}", map.location(BlockId(id))),
    }
}

#[test]
fn scripted_sequences_agree_across_implementations() {
    // From the normalized layout (block `i` at slot `i`, slots 64..79
    // free), walk the storage layer's real call discipline: misses
    // (`location` → `take_owner`), dummy prefetches (`take_owner` on an
    // empty slot), and re-homing (`place` into a free slot).
    let script = [
        Step::Location(0),
        Step::Location(63),
        Step::TakeOwner(0),
        Step::Location(0),
        Step::TakeOwner(0),
        Step::Place(0, 70),
        Step::Location(0),
        Step::TakeOwner(5),
        Step::Place(5, 0),
        Step::Location(5),
        Step::TakeOwner(70),
        Step::Location(0),
    ];
    let mut maps = both(64, 11);
    let mut transcripts: Vec<Vec<String>> = vec![Vec::new(); maps.len()];
    for &step in &script {
        for (map, transcript) in maps.iter_mut().zip(&mut transcripts) {
            transcript.push(apply(map.as_mut(), step));
        }
    }
    assert_eq!(
        transcripts[0], transcripts[1],
        "flat and recursive maps diverged on the scripted sequence"
    );
}

#[test]
fn randomized_sequences_agree_with_a_naive_model() {
    use horam::crypto::rng::DeterministicRng;
    use rand::Rng;

    let capacity = 128u64;
    let mut maps = both(capacity, 7);
    let total_slots = maps[0].total_slots();
    // The naive model of the normalized layout: block `i` at slot `i`. A
    // block keeps naming the slot it left; it is resident while that
    // slot's owner does not name it back.
    let mut model: Vec<u64> = (0..capacity).collect();
    let mut owners: Vec<Option<u64>> = (0..total_slots)
        .map(|s| (s < capacity).then_some(s))
        .collect();

    let mut rng = DeterministicRng::from_u64_seed(0xBEEF);
    for _ in 0..600 {
        // Each iteration follows the storage layer's discipline.
        let steps: Vec<Step> = match rng.gen_range(0..3u8) {
            0 => {
                // Re-home a currently resident block into a free slot.
                let free: Vec<u64> = (0..total_slots)
                    .filter(|&s| owners[s as usize].is_none())
                    .collect();
                let homeless: Vec<u64> = (0..capacity)
                    .filter(|&id| owners[model[id as usize] as usize] != Some(id))
                    .collect();
                if free.is_empty() || homeless.is_empty() {
                    continue;
                }
                let id = homeless[rng.gen_range(0..homeless.len())];
                let slot = free[rng.gen_range(0..free.len())];
                model[id as usize] = slot;
                owners[slot as usize] = Some(id);
                vec![Step::Place(id, slot)]
            }
            1 => {
                // A miss or dummy prefetch on a random slot.
                let slot = rng.gen_range(0..total_slots);
                owners[slot as usize] = None;
                vec![Step::TakeOwner(slot)]
            }
            _ => vec![Step::Location(rng.gen_range(0..capacity))],
        };
        for step in steps {
            let outcomes: Vec<String> = maps
                .iter_mut()
                .map(|map| apply(map.as_mut(), step))
                .collect();
            assert_eq!(
                outcomes[0], outcomes[1],
                "implementations diverged on {step:?}"
            );
        }
    }

    // Final sweep: every block's location matches the model in both maps.
    for id in 0..capacity {
        for map in &mut maps {
            assert_eq!(map.location(BlockId(id)).unwrap(), model[id as usize]);
        }
    }
}

#[test]
fn rebuild_all_agrees_across_implementations() {
    let capacity = 64u64;
    let mut maps = both(capacity, 3);
    let total_slots = maps[0].total_slots();

    // A full image placing every other block (at spread-out slots),
    // leaving the rest resident: they get slot 0.
    let mut image: Vec<Option<BlockId>> = vec![None; total_slots as usize];
    for id in (0..capacity).step_by(2) {
        image[id as usize] = Some(BlockId(id));
    }
    for map in &mut maps {
        map.rebuild_all(&image).expect("full rebuild");
    }
    for id in 0..capacity {
        let expected = image
            .iter()
            .position(|o| *o == Some(BlockId(id)))
            .unwrap_or(0) as u64;
        for map in &mut maps {
            assert_eq!(map.location(BlockId(id)).unwrap(), expected);
        }
    }

    // Pass-sized owner sweeps agree with the image too.
    let half = total_slots / 2;
    let in_first_half = image[..half as usize].iter().flatten().count();
    for map in &mut maps {
        let taken = map.take_pass_owners(0, half).unwrap();
        assert_eq!(taken.iter().flatten().count(), in_first_half);
        assert_eq!(&taken[..], &image[..half as usize]);
    }
}

#[test]
fn trusted_memory_accounting_is_sublinear_for_the_recursive_map() {
    let small = both(1 << 10, 5).remove(1);
    let large = both(1 << 14, 5).remove(1);
    let flat_large = both(1 << 14, 5).remove(0);
    // 16× the capacity must cost far less than 16× the trusted bytes —
    // and undercut the flat table outright.
    assert!(large.memory_bytes() < small.memory_bytes() * 8);
    assert!(large.memory_bytes() * 4 < flat_large.memory_bytes());
    assert!(!large.level_views().is_empty());
    assert!(flat_large.level_views().is_empty());
}

/// The scheduler's hit test reads the memory layer, never the position
/// map, so level checkouts per cycle stay bounded by the recursion depth
/// however far the scan reaches. Distinct ids strided across the id
/// space make every request a miss — each scan runs to the full
/// prefetch distance — and keep every page cold in the 8-page caches.
#[test]
fn level_checkouts_per_cycle_do_not_follow_the_scheduler_scan() {
    let config = HOramConfig::new(4096, 8, 1024)
        .with_seed(3)
        .with_recursive_posmap(8);
    let mut oram = HOram::new(
        config,
        MemoryHierarchy::dac2019(),
        MasterKey::from_bytes([0x41; 32]),
    )
    .expect("engine builds");
    // One forward and one inverse table, each with the same level count.
    let levels_per_table = oram.posmap().level_views().len() as u64 / 2;
    let before = (oram.posmap().stats().checkouts, oram.stats().cycles);
    let requests: Vec<Request> = (0..400u64)
        .map(|i| Request::read(i * 1237 % 4096))
        .collect();
    oram.run_batch(&requests).expect("batch runs");
    assert_eq!(
        oram.stats().shuffles,
        0,
        "the stretch must cross no shuffle"
    );
    let checkouts = oram.posmap().stats().checkouts - before.0;
    let cycles = oram.stats().cycles - before.1;
    assert!(
        checkouts <= 2 * levels_per_table * cycles,
        "{checkouts} level checkouts over {cycles} cycles ({levels_per_table} levels per table)"
    );
}

mod engine_equivalence {
    use super::*;
    use proptest::prelude::*;

    fn engine(capacity: u64, recursive: bool, seed: u64) -> HOram {
        let mut config = HOramConfig::new(capacity, 8, 16).with_seed(seed);
        if recursive {
            config = config.with_recursive_posmap(4);
        }
        HOram::new(
            config,
            MemoryHierarchy::dac2019(),
            MasterKey::from_bytes([0x41; 32]),
        )
        .expect("engine builds")
    }

    fn sharded(capacity: u64, shards: u64, recursive: bool, seed: u64) -> ShardedOram {
        let mut config = HOramConfig::new(capacity, 8, 16).with_seed(seed);
        if recursive {
            config = config.with_recursive_posmap(4);
        }
        ShardedOram::new(
            ShardedConfig::new(config, shards),
            MasterKey::from_bytes([0x41; 32]),
            |_| MemoryHierarchy::dac2019(),
        )
        .expect("sharded engine builds")
    }

    fn requests(ops: &[(u64, Option<u8>)]) -> Vec<Request> {
        ops.iter()
            .map(|(id, write)| match write {
                Some(byte) => Request::write(*id, vec![*byte; 8]),
                None => Request::read(*id),
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// For arbitrary read/write interleavings, a recursive-posmap
        /// engine answers byte-identically to the flat-posmap engine —
        /// and so do its data-bus trace and simulated clock (tiny memory
        /// tree, so sequences cross shuffle periods).
        #[test]
        fn flat_and_recursive_engines_are_identical(
            ops in proptest::collection::vec((0u64..64, proptest::option::of(any::<u8>())), 1..70),
        ) {
            let batch = requests(&ops);
            let mut flat = engine(64, false, 29);
            let expected = flat.run_batch(&batch).expect("flat runs");
            let mut recursive = engine(64, true, 29);
            let responses = recursive.run_batch(&batch).expect("recursive runs");
            prop_assert_eq!(responses, expected);
            prop_assert_eq!(
                (recursive.trace().len(), recursive.trace().digest()),
                (flat.trace().len(), flat.trace().digest())
            );
            prop_assert_eq!(recursive.clock().now(), flat.clock().now());
        }

        /// The same equivalence holds through the sharded scale-out path
        /// at four shards (each shard gets its own recursive map).
        #[test]
        fn flat_and_recursive_sharded_engines_are_identical(
            ops in proptest::collection::vec((0u64..64, proptest::option::of(any::<u8>())), 1..60),
        ) {
            let batch = requests(&ops);
            let mut flat = sharded(64, 4, false, 31);
            let expected = flat.run_batch(&batch).expect("flat runs");
            let mut recursive = sharded(64, 4, true, 31);
            let responses = recursive.run_batch(&batch).expect("recursive runs");
            prop_assert_eq!(responses, expected);
        }
    }
}
