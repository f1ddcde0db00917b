//! Ablation (§5.3.2): multi-user sharing of one H-ORAM.
//!
//! The paper argues the flat layout "inherently supports multiple users"
//! because grouped scheduling interleaves their requests at no extra cost.
//! This binary drives 1–16 users, each with an equal slice of a shared
//! request budget, through `OramService` over one shard (a single
//! instance) and reports aggregate throughput — flat throughput across
//! user counts is the claim. The service admits everything as one batch
//! with neither dedup nor I/O windows, so the scheduler sees exactly the
//! round-robin merge of the users' queues.
//!
//! ```sh
//! cargo run --release -p bench --bin ablation_multi_user
//! ```

use bench::TableParams;
use horam::analysis::table::Table;
use horam::core::shard::{ShardedConfig, ShardedOram};
use horam::core::{Permission, UserId};
use horam::prelude::*;
use horam::workload::WorkloadGenerator;
use horam_server::{FifoPolicy, OramService, ServiceConfig};

fn main() {
    let params = TableParams {
        requests: 8_000,
        ..TableParams::table_5_3()
    }
    .with_args();

    println!(
        "Multi-user sweep — {} blocks, {} total requests split across users\n",
        params.capacity_blocks, params.requests
    );
    let mut table = Table::new(vec![
        "users",
        "requests/user",
        "wall time",
        "throughput (req/s, simulated)",
    ]);

    for users in [1u32, 2, 4, 8, 16] {
        let config = HOramConfig::new(
            params.capacity_blocks,
            params.payload_len,
            params.memory_slots,
        )
        .with_seed(params.seed);
        let oram = ShardedOram::new(
            ShardedConfig::new(config, 1),
            MasterKey::from_bytes([0xCD; 32]),
            |_| MemoryHierarchy::dac2019(),
        )
        .expect("builds");
        let mut service = OramService::new(
            oram,
            Box::new(FifoPolicy),
            ServiceConfig {
                batch_size: params.requests,
                max_pending_per_tenant: params.requests,
                dedup: false,
                io_batch: 1,
                ..ServiceConfig::default()
            },
        );

        let per_user = params.requests / users as usize;
        let queues: Vec<(UserId, Vec<Request>)> = (0..users)
            .map(|u| {
                let mut generator = HotspotWorkload::new(
                    params.capacity_blocks,
                    0.8,
                    (params.memory_slots as f64 / 8.0) / params.capacity_blocks as f64,
                    0.0,
                    0,
                    params.seed ^ u as u64,
                );
                (UserId(u), generator.generate(per_user))
            })
            .collect();

        // Round-robin merge: user 0's first request, user 1's first, …
        for (user, _) in &queues {
            service.register_tenant(*user, 0..params.capacity_blocks, Permission::ReadWrite);
        }
        for round in 0..per_user {
            for (user, queue) in &queues {
                service
                    .submit(*user, queue[round].clone())
                    .expect("admitted");
            }
        }
        let report = service.pump_until_idle().expect("runs");
        let requests = per_user * users as usize;
        assert_eq!(report.completed, requests as u64);
        table.row(vec![
            users.to_string(),
            per_user.to_string(),
            report.wall_time.to_string(),
            format!("{:.0}", requests as f64 / report.wall_time.as_secs_f64()),
        ]);
    }
    println!("{table}");
    println!("Expected shape (paper §5.3.2): aggregate throughput stays roughly flat as");
    println!("users are added — the scheduler groups across users exactly as it groups");
    println!("one user's stream (per-user hot sets overlap less, so very high user");
    println!("counts pay a mild cache-dilution penalty).");
}
