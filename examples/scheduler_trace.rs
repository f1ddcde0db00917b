//! Watch the secure scheduler group requests (paper Figure 4-2).
//!
//! Feeds the exact mix of the paper's example — hits `H1..H6` around
//! misses `M1..M3` — through the scheduler one cycle at a time, printing
//! which requests each cycle services in memory and what the I/O slot
//! does. The printed schedule mirrors Figure 4-2: the first miss's load
//! overlaps later hits, serviced misses turn into hits, and gaps are
//! padded with dummies.
//!
//! Run with:
//!
//! ```sh
//! cargo run --example scheduler_trace
//! ```

use horam::prelude::*;

fn main() -> Result<(), OramError> {
    // Small instance; c fixed at 3 and d = 9 like the paper's example.
    let config = HOramConfig::new(64, 16, 32)
        .with_fixed_c(3)
        .with_prefetch_distance(9)
        .with_seed(4);
    let mut oram = HOram::new(
        config,
        MemoryHierarchy::dac2019(),
        MasterKey::from_bytes([2u8; 32]),
    )?;

    // Make blocks 0..6 memory-resident ("hits"), leave 60..63 cold
    // ("misses"), reproducing the figure's H/M mix.
    let warmup: Vec<Request> = (0..6u64).map(Request::read).collect();
    oram.run_batch(&warmup)?;
    oram.reset_accounting();

    // The ROB contents of Figure 4-2: H1 H2 H3 M1 H4 H5 M2 M2 H6.
    let figure_mix: Vec<Request> = vec![
        Request::read(0u64),  // H1
        Request::read(1u64),  // H2
        Request::read(2u64),  // H3
        Request::read(60u64), // M1
        Request::read(3u64),  // H4
        Request::read(4u64),  // H5
        Request::read(61u64), // M2
        Request::read(61u64), // M2 (duplicate, as in the figure)
        Request::read(5u64),  // H6
    ];

    let tickets: Vec<u64> = figure_mix
        .iter()
        .map(|r| oram.enqueue(r.clone()))
        .collect::<Result<_, _>>()?;

    let mut cycle = 0;
    while {
        let before = oram.stats();
        oram.run_cycle_window(1)?;
        cycle += 1;
        let after = oram.stats();
        let hits = after.memory_hits - before.memory_hits;
        let dummy_mem = after.dummy_memory_accesses - before.dummy_memory_accesses;
        let io = if after.real_io_loads > before.real_io_loads {
            "load miss"
        } else {
            "load dummy"
        };
        println!("cycle {cycle}: {hits} hit(s) + {dummy_mem} dummy path access(es) | I/O: {io}");
        after.requests < figure_mix.len() as u64
    } {}

    // Collect responses to prove every request was served.
    let responses = oram.drain(&tickets)?;
    println!(
        "all {} requests serviced across {cycle} cycles",
        responses.len()
    );
    println!(
        "every cycle issued exactly one I/O: {} cycles, {} loads",
        oram.stats().cycles,
        oram.stats().total_io_loads()
    );
    Ok(())
}
