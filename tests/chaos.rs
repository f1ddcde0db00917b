//! Chaos battery: the end-to-end failure-hardening contract under
//! property-based fault schedules.
//!
//! The contract: under **any** seeded fault schedule the sharded engine
//! produces, for every submitted request, either a clean typed error or
//! the exact answer — never a panic, never a wrong answer. The battery
//! drives `ShardedOram` at 1 and 4 shards through proptest-generated
//! workloads with mid-run storage-fault injection (transient read faults
//! up to a full outage, or permanent media failure) and checks:
//!
//! 1. **Totality** — every ticket resolves exactly once: a response or a
//!    typed failure (`take_failure`), no lost tickets, no panics.
//! 2. **No wrong answers** — every answered request equals the sequential
//!    model: the last earlier-submitted write to its block, or else the
//!    block's initial value. A failed shard never serves again, so there
//!    is no older state an answer could come from.
//! 3. **Quarantine** — a shard whose window fails degrades: every access
//!    to it fails typed, while the other shards keep serving answers
//!    byte-exact against a reference `HashMap` model. The way back is a
//!    restore of the whole instance from its last snapshot
//!    (`tests/persistence.rs`).
//! 4. **Determinism** — the entire case (responses, failures, degraded
//!    set) is byte-identical when re-run with the same seeds: fault
//!    injection is replayable, not flaky.
//!
//! Every case logs its generative seeds (`fault_seed`, permille, mode)
//! so a failure reproduces from the test output alone.

use std::collections::HashMap;

use horam::core::shard::{ShardedConfig, ShardedOram};
use horam::prelude::*;
use horam::storage::fault::FaultConfig;
use proptest::prelude::*;

const CAPACITY: u64 = 64;
const PAYLOAD: usize = 8;

fn build(shards: u64) -> ShardedOram {
    let config = ShardedConfig::new(
        HOramConfig::new(CAPACITY, PAYLOAD, 16)
            .with_seed(23)
            .with_io_batch(8),
        shards,
    );
    ShardedOram::new(config, MasterKey::from_bytes([0x7A; 32]), |_| {
        MemoryHierarchy::dac2019()
    })
    .expect("sharded instance builds")
}

/// One request's fully-resolved fate, stringified so two runs of the
/// same case compare byte-for-byte.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Fate {
    Response(Vec<u8>),
    Failed(String),
}

/// Everything observable from one case run; compared across repeat runs
/// for the determinism property.
#[derive(Debug, Clone, PartialEq, Eq)]
struct CaseOutcome {
    fates: Vec<Fate>,
    degraded: Vec<usize>,
}

/// The shard each block routes to (the routing is a function of the key
/// alone, so every instance `build` makes agrees).
fn shard_map(shards: u64) -> Vec<usize> {
    let oram = build(shards);
    (0..CAPACITY)
        .map(|id| oram.mapper().shard_of(BlockId(id)).expect("id in domain") as usize)
        .collect()
}

/// The shard `run_case` injects faults into.
fn target_of(shards: u64, fault_seed: u64) -> usize {
    (fault_seed % shards) as usize
}

/// Drives one full chaos case: init writes → fault injection on one
/// shard → generated workload → pump to drain → resolve every ticket.
/// Panics (failing the property) if a ticket is lost or the pump stalls.
fn run_case(
    shards: u64,
    ops: &[(u64, Option<u8>)],
    fault_seed: u64,
    permille: u32,
    permanent: bool,
) -> CaseOutcome {
    let mut oram = build(shards);

    // Ground truth for every block.
    let init: Vec<Request> = (0..CAPACITY)
        .map(|id| Request::write(id, vec![id as u8; PAYLOAD]))
        .collect();
    oram.run_batch(&init).expect("fault-free init");

    let target = target_of(shards, fault_seed);
    let config = if permanent {
        FaultConfig {
            seed: fault_seed,
            permanent_slots: (0..8192).collect(),
            ..FaultConfig::default()
        }
    } else {
        FaultConfig {
            seed: fault_seed,
            transient_read_permille: permille,
            ..FaultConfig::default()
        }
    };
    oram.inject_storage_faults(target, config);

    // Enqueue the whole workload up front (the shard is healthy at
    // admission), then pump until every healthy queue drains.
    let mut tickets = Vec::with_capacity(ops.len());
    for (id, write) in ops {
        let request = match write {
            Some(byte) => Request::write(*id, vec![*byte; PAYLOAD]),
            None => Request::read(*id),
        };
        tickets.push(oram.enqueue(request).expect("healthy-at-admission enqueue"));
    }
    let mut rounds = 0u32;
    while !oram.is_drained() {
        oram.run_cycle_window(8)
            .expect("the pump absorbs shard failures");
        rounds += 1;
        assert!(
            rounds < 100_000,
            "pump stalled with {} pending",
            oram.pending()
        );
    }

    let fates = tickets
        .into_iter()
        .map(|ticket| match oram.take_response(ticket) {
            Some(bytes) => Fate::Response(bytes),
            None => Fate::Failed(
                oram.take_failure(ticket)
                    .expect("every unresolved ticket carries a typed failure")
                    .to_string(),
            ),
        })
        .collect();

    let outcome = CaseOutcome {
        fates,
        degraded: oram.degraded_shards(),
    };

    // Post-run probes: the surviving system still answers correctly.
    let shard_of = shard_map(shards);

    // Reference model on the healthy shards: init plus this batch's
    // writes, in submission order.
    let mut healthy_model: HashMap<u64, Vec<u8>> = (0..CAPACITY)
        .map(|id| (id, vec![id as u8; PAYLOAD]))
        .collect();
    for (id, write) in ops {
        if let Some(byte) = write {
            healthy_model.insert(*id, vec![*byte; PAYLOAD]);
        }
    }
    for id in 0..CAPACITY {
        let shard = shard_of[id as usize];
        if outcome.degraded.contains(&shard) {
            assert!(
                oram.read(BlockId(id)).is_err(),
                "reads on a degraded shard must fail typed"
            );
        } else if shard != target {
            assert_eq!(
                oram.read(BlockId(id)).expect("healthy shard serves"),
                healthy_model[&id],
                "healthy shard diverged from the reference model"
            );
        }
        // The faulted-but-never-failed shard is checked through the
        // in-batch no-wrong-answers property below; its post-run reads
        // still traverse the fault plan and may themselves fail typed.
    }

    outcome
}

/// The no-wrong-answers check: every `Ok` read returned exactly the
/// sequential model's value — the last earlier-submitted write to its
/// block, or else the block's initial value.
fn assert_no_wrong_answers(ops: &[(u64, Option<u8>)], outcome: &CaseOutcome, label: &str) {
    let mut model: HashMap<u64, Vec<u8>> = (0..CAPACITY)
        .map(|id| (id, vec![id as u8; PAYLOAD]))
        .collect();
    for (index, (id, write)) in ops.iter().enumerate() {
        match (&outcome.fates[index], write) {
            (Fate::Response(bytes), None) => assert_eq!(
                bytes, &model[id],
                "{label}: read {index} of block {id} differs from the sequential model"
            ),
            (Fate::Failed(reason), _) => {
                assert!(!reason.is_empty(), "{label}: typed failures carry a reason");
            }
            (Fate::Response(_), Some(_)) => {}
        }
        if let Some(byte) = write {
            model.insert(*id, vec![*byte; PAYLOAD]);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Four shards, one under fire: typed errors or byte-identical
    /// answers, healthy shards unaffected, deterministic on re-run.
    #[test]
    fn four_shards_survive_any_fault_schedule(
        ops in proptest::collection::vec(
            (0u64..CAPACITY, proptest::option::of(any::<u8>())), 1..40),
        fault_seed in any::<u64>(),
        permille in 0u32..=1000,
        permanent in any::<bool>(),
    ) {
        println!(
            "chaos case: shards=4 fault_seed={fault_seed} permille={permille} permanent={permanent}"
        );
        let outcome = run_case(4, &ops, fault_seed, permille, permanent);
        assert_no_wrong_answers(&ops, &outcome, "shards=4");
        let replay = run_case(4, &ops, fault_seed, permille, permanent);
        prop_assert_eq!(
            &outcome, &replay,
            "fault schedule must be deterministic: same seeds, same fates"
        );
        println!(
            "chaos case: shards=4 fault_seed={fault_seed} → degraded={:?}",
            outcome.degraded
        );
    }

    /// One shard: no healthy siblings to hide behind — a failure
    /// degrades the whole instance, typed and deterministic.
    #[test]
    fn single_shard_survives_any_fault_schedule(
        ops in proptest::collection::vec(
            (0u64..CAPACITY, proptest::option::of(any::<u8>())), 1..40),
        fault_seed in any::<u64>(),
        permille in 0u32..=1000,
        permanent in any::<bool>(),
    ) {
        println!(
            "chaos case: shards=1 fault_seed={fault_seed} permille={permille} permanent={permanent}"
        );
        let outcome = run_case(1, &ops, fault_seed, permille, permanent);
        assert_no_wrong_answers(&ops, &outcome, "shards=1");
        let replay = run_case(1, &ops, fault_seed, permille, permanent);
        prop_assert_eq!(
            &outcome, &replay,
            "fault schedule must be deterministic: same seeds, same fates"
        );
    }
}

/// A full outage mid-run (every read faults, retries exhausted) degrades
/// exactly the target shard: every ticket routed to it fails with
/// `ShardDegraded`, and every other shard answers byte-exactly — the
/// deterministic pin under the proptest umbrella above.
#[test]
fn full_read_outage_degrades_only_the_target_shard() {
    let ops: Vec<(u64, Option<u8>)> = (0..CAPACITY).map(|id| (id, None)).collect();
    let outcome = run_case(4, &ops, 7, 1000, false);
    let target = target_of(4, 7);
    assert_eq!(
        outcome.degraded,
        vec![target],
        "exactly the target degrades"
    );
    for ((id, _), (fate, shard)) in ops.iter().zip(outcome.fates.iter().zip(shard_map(4))) {
        match fate {
            Fate::Failed(reason) => assert!(
                shard == target && reason.starts_with(&format!("shard {target} degraded")),
                "block {id} on shard {shard} failed: {reason}"
            ),
            Fate::Response(bytes) => {
                assert_ne!(shard, target, "block {id} answered by the dead shard");
                assert_eq!(bytes, &vec![*id as u8; PAYLOAD], "block {id}");
            }
        }
    }
}

/// Permanent media failure degrades exactly the faulted shard, and the
/// other shards keep serving.
#[test]
fn permanent_media_failure_degrades_the_shard() {
    let ops: Vec<(u64, Option<u8>)> = (0..CAPACITY).map(|id| (id, None)).collect();
    let outcome = run_case(4, &ops, 3, 0, true);
    assert_eq!(
        outcome.degraded,
        vec![target_of(4, 3)],
        "exactly the faulted shard degrades"
    );
}
