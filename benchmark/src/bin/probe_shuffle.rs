//! Probe of `oram-shuffle`: drawing the random permutation of one
//! storage partition and applying it to every element, as the shuffle
//! epoch does per partition. Prints `name value` lines.

use horam_benchmark::{time_per_call, Flags};
use oram_shuffle::permutation::Permutation;
use std::hint::black_box;

const ROUNDS: u64 = 200;

fn main() -> Result<(), String> {
    let flags = Flags::from_env()?;
    let n: usize = flags.get("partition-slots", 1024)?;
    let ns_per_round = time_per_call(ROUNDS, |seed| {
        let perm = Permutation::random(black_box(n), seed);
        let mut sum = 0usize;
        for i in 0..n {
            sum = sum.wrapping_add(perm.apply(i));
        }
        black_box(sum);
    });
    println!("shuffle.permute_ns_per_elem {}", ns_per_round / n as f64);
    Ok(())
}
