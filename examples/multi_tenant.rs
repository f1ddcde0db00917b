//! Multi-tenant H-ORAM with access control (paper §5.3.2).
//!
//! Several tenants share one ORAM instance: the scheduler interleaves
//! their requests into the same oblivious cycles (no per-tenant pattern is
//! visible on the bus), while the control layer's capability table keeps
//! tenants inside their own block ranges — "some access control protection
//! … added to our scheduler", as the paper puts it. The tenants reach the
//! instance through the serving layer, over one shard.
//!
//! Run with:
//!
//! ```sh
//! cargo run --example multi_tenant
//! ```

use horam::core::shard::{ShardedConfig, ShardedOram};
use horam::core::{Permission, UserId};
use horam::prelude::*;
use horam_server::{FifoPolicy, OramService, ServeError, ServiceConfig};

fn main() -> Result<(), ServeError> {
    // One shared instance: 1024 blocks of 32 B.
    let config = ShardedConfig::new(HOramConfig::new(1024, 32, 128).with_seed(88), 1);
    let oram = ShardedOram::new(config, MasterKey::from_bytes([6u8; 32]), |_| {
        MemoryHierarchy::dac2019()
    })?;
    let mut service = OramService::new(oram, Box::new(FifoPolicy), ServiceConfig::default());

    // Three tenants with disjoint ranges; tenant 2 also gets read-only
    // access to tenant 0's published range.
    service.register_tenant(UserId(0), 0..256, Permission::ReadWrite);
    service.register_tenant(UserId(1), 256..512, Permission::ReadWrite);
    service.register_tenant(UserId(2), 512..768, Permission::ReadWrite);
    service.grant(UserId(2), 0..64, Permission::ReadOnly); // published range

    // Tenant queues, including some requests the ACL must reject.
    let queues: Vec<(UserId, Vec<Request>)> = vec![
        (
            UserId(0),
            (0..32u64)
                .map(|i| Request::write(i, vec![0xA0; 32]))
                .collect(),
        ),
        (
            UserId(1),
            (256..288u64)
                .map(|i| Request::write(i, vec![0xB1; 32]))
                // Attempted trespass into tenant 0's range:
                .chain(std::iter::once(Request::write(10u64, vec![0xEE; 32])))
                .collect(),
        ),
        (
            UserId(2),
            (0..16u64)
                .map(Request::read) // allowed: published, read-only
                .chain(std::iter::once(Request::write(5u64, vec![0xEE; 32]))) // denied
                .collect(),
        ),
    ];

    // Submission runs the control layer's check BEFORE anything reaches
    // the scheduler, so denials cause no observable accesses at all.
    // Queues are merged round-robin, the grouping-friendly arrival order.
    let mut published = Vec::new();
    let mut denied = 0;
    let longest = queues
        .iter()
        .map(|(_, queue)| queue.len())
        .max()
        .unwrap_or(0);
    for round in 0..longest {
        for (user, queue) in &queues {
            let Some(request) = queue.get(round) else {
                continue;
            };
            match service.submit(*user, request.clone()) {
                Ok(ticket) if *user == UserId(2) => published.push(ticket),
                Ok(_) => {}
                Err(ServeError::Denied(denial)) => {
                    println!(
                        "denied  {user}: {} {} — {denial}",
                        kind(&request.op),
                        request.id
                    );
                    denied += 1;
                }
                Err(other) => return Err(other),
            }
        }
    }

    let start = service.oram().clock().now();
    let report = service.pump_until_idle()?;
    let wall_time = service.oram().clock().now().duration_since(start);
    println!(
        "\nserviced {} requests from 3 tenants ({denied} denied at submission)",
        report.completed
    );
    println!(
        "wall time {wall_time}, throughput {:.0} req/s (simulated)",
        report.completed as f64 / wall_time.as_secs_f64()
    );

    // Tenant 2 reads tenant 0's published data — consistently.
    for ticket in published {
        assert_eq!(service.take_response(ticket), Some(vec![0xA0; 32]));
    }
    println!("tenant 2 read tenant 0's published blocks consistently");
    Ok(())
}

fn kind(op: &RequestOp) -> &'static str {
    match op {
        RequestOp::Read => "read",
        RequestOp::Write(_) => "write",
    }
}
