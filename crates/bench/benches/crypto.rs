//! Micro-benchmarks for the cryptographic substrate.
//!
//! ChaCha20 keystream throughput, SipHash MAC throughput, block sealing,
//! and the Feistel PRP — the per-block costs behind every simulated ORAM
//! access.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use horam::crypto::chacha::{ChaCha20, ChaChaKey};
use horam::crypto::keys::MasterKey;
use horam::crypto::prp::FeistelPrp;
use horam::crypto::seal::BlockSealer;
use horam::crypto::siphash::{siphash24, SipHash24};
use std::hint::black_box;

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

fn bench_siphash(c: &mut Criterion) {
    let mut group = c.benchmark_group("siphash24");
    for size in [16usize, 64, 1024] {
        group.throughput(Throughput::Bytes(size as u64));
        group.bench_with_input(BenchmarkId::from_parameter(size), &size, |b, &size| {
            let key = [9u8; 16];
            let data = vec![0xAAu8; size];
            b.iter(|| black_box(siphash24(&key, black_box(&data))));
        });
    }
    group.finish();
}

fn bench_sealing(c: &mut Criterion) {
    let keys = MasterKey::from_bytes([1u8; 32]).derive("bench/seal", 0);
    let sealer = BlockSealer::new(&keys);
    let payload = vec![0x55u8; 1024];
    c.bench_function("seal_1KB_block", |b| {
        let mut seq = 0u64;
        b.iter(|| {
            seq += 1;
            black_box(sealer.seal(42, seq, black_box(&payload)))
        });
    });
    let sealed = sealer.seal(42, 0, &payload);
    c.bench_function("open_1KB_block", |b| {
        b.iter(|| black_box(sealer.open(black_box(&sealed)).expect("verifies")));
    });
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
/// `apply_keystream` / `apply_keystream_into` (explicit SIMD passes, scalar
/// remainder), at the sizes the stack encrypts: one block, the serving
/// layer's 81-byte wire body (two blocks, never reaches a kernel), the
/// 1 KB tree block's 1 041-byte body, and a snapshot-sized run.
fn bench_chacha_batch(c: &mut Criterion) {
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
        group.bench_with_input(
            BenchmarkId::new("apply_keystream_into", size),
            &size,
            |b, &size| {
                let src = vec![0xA5u8; size];
                let mut dst = vec![0u8; size];
                b.iter(|| {
                    ChaCha20::from_key(&key, &nonce, 0)
                        .apply_keystream_into(black_box(&src), black_box(&mut dst));
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
    bench_chacha,
    bench_chacha_batch,
    bench_siphash,
    bench_sealing,
    bench_sealer_key_schedule,
    bench_prp
);
criterion_main!(benches);
