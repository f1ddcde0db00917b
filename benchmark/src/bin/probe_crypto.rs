//! Probe of `oram-crypto`: `BlockSealer::seal` / `open` on one block of
//! the workload's payload size, alone. Prints `name value` lines.

use horam_benchmark::{time_per_call, Flags};
use oram_crypto::keys::MasterKey;
use oram_crypto::seal::BlockSealer;
use oram_protocols::types::BlockContent;
use std::hint::black_box;

const ITERS: u64 = 100_000;

fn main() -> Result<(), String> {
    let flags = Flags::from_env()?;
    let payload: usize = flags.get("payload", 1024)?;
    let body = vec![0x5Au8; BlockContent::encoded_len(payload)];
    let sealer = BlockSealer::new(&MasterKey::from_bytes([7; 32]).derive("probe/crypto", 0));

    let seal_ns = time_per_call(ITERS, |i| {
        black_box(sealer.seal(i, 1, black_box(&body)));
    });
    let sealed = sealer.seal(1, 1, &body);
    let open_ns = time_per_call(ITERS, |_| {
        black_box(sealer.open(black_box(&sealed)).expect("block opens"));
    });
    println!("crypto.seal_ns_per_block {seal_ns}");
    println!("crypto.open_ns_per_block {open_ns}");
    Ok(())
}
