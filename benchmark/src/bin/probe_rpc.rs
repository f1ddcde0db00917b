//! Probe of `horam-rpc`'s wire codec: `encode_frame` / `decode_frame` of
//! a write `Request` and its `Response` at the workload's payload size,
//! averaged over the two frames. Prints `name value` lines.

use horam_benchmark::{time_per_call, Flags};
use horam_rpc::wire::{decode_frame, encode_frame, Frame};
use std::hint::black_box;

const ITERS: u64 = 200_000;

fn main() -> Result<(), String> {
    let flags = Flags::from_env()?;
    let payload: usize = flags.get("payload", 64)?;
    let frames = [
        Frame::Request {
            req_id: 77,
            deadline_nanos: 0,
            block: 4242,
            payload: Some(vec![0x5A; payload]),
        },
        Frame::Response {
            req_id: 77,
            status: 0,
            shard: 0,
            message: String::new(),
            payload: vec![0xA5; payload],
        },
    ];
    let encoded: Vec<Vec<u8>> = frames.iter().map(encode_frame).collect();
    for (frame, bytes) in frames.iter().zip(&encoded) {
        // Envelope: u32 length, kind byte, body.
        let decoded = decode_frame(bytes[4], &bytes[5..]).map_err(|e| format!("decode: {e:?}"))?;
        if &decoded != frame {
            return Err("frame does not survive a round trip".into());
        }
    }

    let encode_ns = time_per_call(ITERS, |i| {
        black_box(encode_frame(black_box(&frames[(i & 1) as usize])));
    });
    let decode_ns = time_per_call(ITERS, |i| {
        let bytes = black_box(&encoded[(i & 1) as usize]);
        black_box(decode_frame(bytes[4], &bytes[5..]).expect("frame decodes"));
    });
    println!("rpc.encode_ns_per_frame {encode_ns}");
    println!("rpc.decode_ns_per_frame {decode_ns}");
    Ok(())
}
