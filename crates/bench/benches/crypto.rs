//! Micro-benchmarks for the cryptographic substrate.
//!
//! ChaCha20 keystream throughput, SipHash MAC throughput, block sealing
//! (one block per call vs one path per call), and the Feistel PRP — the
//! per-block costs behind every simulated ORAM access.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use horam::crypto::chacha::{ChaCha20, ChaChaKey};
use horam::crypto::keys::MasterKey;
use horam::crypto::prp::FeistelPrp;
use horam::crypto::seal::BlockSealer;
use horam::crypto::siphash::{siphash24, SipHash24};
use std::hint::black_box;

/// Which kernel widths this host dispatches, once, so a results file says
/// what it measured.
fn print_dispatch(_: &mut Criterion) {
    println!("chacha20 keystream: {}", ChaChaKey::dispatch());
    println!("siphash24 finish4:  {}", SipHash24::finish4_dispatch());
}

fn bench_chacha(c: &mut Criterion) {
    let mut group = c.benchmark_group("chacha20");
    for size in [64usize, 1024, 16 * 1024] {
        group.throughput(Throughput::Bytes(size as u64));
        group.bench_with_input(BenchmarkId::from_parameter(size), &size, |b, &size| {
            let key = [7u8; 32];
            let nonce = [3u8; 12];
            let mut data = vec![0u8; size];
            b.iter(|| {
                ChaCha20::apply(&key, &nonce, 0, black_box(&mut data));
            });
        });
    }
    group.finish();
}

/// The scalar hasher vs the four-lane `finish4`, per message, at the
/// lengths the sealer MACs (a body plus its 24-byte header: 105 B for the
/// serving geometry's 81-byte body, 1 065 B for a 1 KB tree block) and
/// three round sizes. The ×4 rows hash four messages per iteration, so
/// their throughput is for all four.
fn bench_siphash(c: &mut Criterion) {
    let key = [9u8; 16];
    let mut group = c.benchmark_group("siphash24");
    for size in [16usize, 64, 105, 1024, 1065] {
        let messages: [Vec<u8>; 4] = std::array::from_fn(|j| vec![0xAA ^ j as u8; size]);
        group.throughput(Throughput::Bytes(size as u64));
        group.bench_with_input(BenchmarkId::new("scalar", size), &size, |b, _| {
            b.iter(|| black_box(siphash24(&key, black_box(&messages[0]))));
        });
        group.throughput(Throughput::Bytes(4 * size as u64));
        group.bench_with_input(BenchmarkId::new("x4", size), &size, |b, _| {
            let hasher = SipHash24::new(&key);
            b.iter(|| {
                let tails: [&[u8]; 4] = std::array::from_fn(|j| &messages[j][..]);
                black_box(hasher.finish4([[]; 4], black_box(tails)))
            });
        });
    }
    group.finish();
}

/// Sealing and opening the two bodies the stack really handles — the
/// 81-byte wire body of the 64 B serving geometry and the 1 041-byte one
/// of a 1 KB tree block (a block's 17-byte header costs the latter a whole
/// extra keystream block) — one call per block vs one call per path:
/// 32 blocks is a `serve_zipf` path, 40 a `hotspot_read` one. Every row's
/// throughput is per iteration, so batch rows divide by their block count;
/// the batch rows include building the batch (one body clone per block).
fn bench_sealing(c: &mut Criterion) {
    let keys = MasterKey::from_bytes([1u8; 32]).derive("bench/seal", 0);
    let sealer = BlockSealer::new(&keys);
    let mut group = c.benchmark_group("seal");
    for size in [81usize, 1041] {
        let body = vec![0x55u8; size];
        group.throughput(Throughput::Elements(1));
        group.bench_with_input(BenchmarkId::new("seal_single", size), &size, |b, _| {
            let mut seq = 0u64;
            b.iter(|| {
                seq += 1;
                black_box(sealer.seal(42, seq, black_box(&body)))
            });
        });
        let sealed = sealer.seal(42, 0, &body);
        group.bench_with_input(BenchmarkId::new("open_single", size), &size, |b, _| {
            b.iter(|| black_box(sealer.open(black_box(&sealed)).expect("verifies")));
        });
        for blocks in [32u64, 40] {
            let row = format!("{size}x{blocks}");
            group.throughput(Throughput::Elements(blocks));
            group.bench_with_input(BenchmarkId::new("seal_batch", &row), &size, |b, _| {
                let mut seq = 0u64;
                b.iter(|| {
                    seq += 1;
                    let items = (0..blocks).map(|slot| (slot, seq, body.clone()));
                    black_box(sealer.seal_batch(items))
                });
            });
            let path: Vec<_> = (0..blocks)
                .map(|slot| sealer.seal(slot, 0, &body))
                .collect();
            group.bench_with_input(BenchmarkId::new("open_batch", &row), &size, |b, _| {
                b.iter(|| black_box(sealer.open_batch(path.clone()).expect("verifies")));
            });
        }
    }
    group.finish();
}

/// The per-call state-setup delta the sealer optimization removes: a
/// `BlockSealer` caches its ChaCha key schedule and prepared SipHash
/// state once, where the naive path re-parses both raw keys on every
/// `seal_into`/`open_in_place` call. The "rebuilt_schedule" rows
/// reconstruct that naive path explicitly so the delta stays measurable.
fn bench_sealer_key_schedule(c: &mut Criterion) {
    let enc_key = [0x42u8; 32];
    let mac_key = [0x17u8; 16];
    let sealer = BlockSealer::from_raw_keys(enc_key, mac_key);
    let mut group = c.benchmark_group("sealer_key_schedule");
    // The storage layer's wire bodies are small (tens of bytes), which is
    // exactly where fixed per-call setup costs dominate.
    for size in [40usize, 256, 1024] {
        group.throughput(Throughput::Bytes(size as u64));
        let payload = vec![0x5Au8; size];
        group.bench_with_input(BenchmarkId::new("cached_schedule", size), &size, |b, _| {
            let mut seq = 0u64;
            b.iter(|| {
                seq += 1;
                black_box(sealer.seal_into(42, seq, black_box(payload.clone())))
            });
        });
        group.bench_with_input(BenchmarkId::new("rebuilt_schedule", size), &size, |b, _| {
            let mut seq = 0u64;
            b.iter(|| {
                seq += 1;
                // The pre-optimization per-call path: parse the raw
                // keys, encrypt in place, then MAC from raw key bytes.
                let mut body = black_box(payload.clone());
                let mut nonce = [0u8; 12];
                nonce[..8].copy_from_slice(&42u64.to_le_bytes());
                nonce[8..].copy_from_slice(&(seq as u32).to_le_bytes());
                ChaCha20::new(black_box(&enc_key), &nonce).apply_keystream(&mut body);
                let mut mac = SipHash24::new(black_box(&mac_key));
                mac.write_u64(42);
                mac.write_u64(seq);
                mac.write_u64(body.len() as u64);
                mac.write(&body);
                black_box((body, mac.finish()))
            });
        });
    }
    group.finish();
}

/// The scalar reference (a `keystream_block` loop) vs the dispatched
/// `apply_keystream` (kernel passes, scalar remainder) vs 40 bodies in one
/// `apply_keystreams` call (lanes across bodies; per-body time is the
/// row's divided by 40), at the sizes the stack encrypts: one block, the
/// serving layer's 81-byte wire body (two blocks: scalar alone, a quarter
/// of a pass in a batch), the 1 KB tree block's 1 041-byte body, and a
/// snapshot-sized run.
fn bench_chacha_batch(c: &mut Criterion) {
    const BODIES: usize = 40;
    let key = ChaChaKey::new(&[7u8; 32]);
    let nonce = [3u8; 12];
    let mut group = c.benchmark_group("chacha20_batch");
    for size in [64usize, 81, 1041, 64 * 1024] {
        group.throughput(Throughput::Bytes(size as u64));
        group.bench_with_input(
            BenchmarkId::new("scalar_reference", size),
            &size,
            |b, &size| {
                let mut data = vec![0u8; size];
                b.iter(|| {
                    let stream = ChaCha20::from_key(&key, &nonce, 0);
                    for (i, chunk) in data.chunks_mut(64).enumerate() {
                        let ks = stream.keystream_block(i as u32);
                        for (byte, k) in chunk.iter_mut().zip(ks.iter()) {
                            *byte ^= k;
                        }
                    }
                    black_box(&mut data);
                });
            },
        );
        group.bench_with_input(
            BenchmarkId::new("apply_keystream", size),
            &size,
            |b, &size| {
                let mut data = vec![0u8; size];
                b.iter(|| {
                    ChaCha20::from_key(&key, &nonce, 0).apply_keystream(black_box(&mut data));
                });
            },
        );
        if size > 1041 {
            // One long stream fills its passes by itself; a batch adds nothing.
            continue;
        }
        group.throughput(Throughput::Bytes((BODIES * size) as u64));
        group.bench_with_input(
            BenchmarkId::new(format!("apply_keystreams_x{BODIES}"), size),
            &size,
            |b, &size| {
                let mut bodies = vec![vec![0u8; size]; BODIES];
                b.iter(|| {
                    let bodies = black_box(&mut bodies).iter_mut().enumerate();
                    key.apply_keystreams(bodies.map(|(i, body)| {
                        let mut nonce = nonce;
                        nonce[0] = i as u8;
                        (nonce, &mut body[..])
                    }));
                });
            },
        );
    }
    group.finish();
}

fn bench_prp(c: &mut Criterion) {
    let prp = FeistelPrp::new([4u8; 16], 1 << 20).expect("domain valid");
    c.bench_function("feistel_prp_permute_2^20", |b| {
        let mut x = 0u64;
        b.iter(|| {
            x = (x + 1) % (1 << 20);
            black_box(prp.permute(black_box(x)).expect("in domain"))
        });
    });
}

criterion_group!(
    benches,
    print_dispatch,
    bench_chacha,
    bench_chacha_batch,
    bench_siphash,
    bench_sealing,
    bench_sealer_key_schedule,
    bench_prp
);
criterion_main!(benches);
