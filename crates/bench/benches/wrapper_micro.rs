//! Criterion micro-benchmarks of the building blocks: SHA-256/HMAC, the
//! double-signature path, and one fail-signal wrapper processing an input.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use fs_common::id::ProcessId;
use fs_common::rng::DetRng;
use fs_crypto::hmac::HmacSha256;
use fs_crypto::keys::{provision, SignerId};
use fs_crypto::sha256::Sha256;
use fs_crypto::sig::{Signature, SingleSigned};

fn bench_crypto(c: &mut Criterion) {
    let data = vec![0xabu8; 1024];
    let mut group = c.benchmark_group("crypto");
    group.throughput(Throughput::Bytes(data.len() as u64));
    group.bench_function("sha256_1k", |b| b.iter(|| Sha256::digest(&data)));
    group.bench_function("hmac_1k", |b| b.iter(|| HmacSha256::mac(b"key", &data)));
    group.finish();

    let mut rng = DetRng::new(1);
    let (mut keys, dir) = provision([ProcessId(0), ProcessId(1)], &mut rng);
    let a = keys.remove(&SignerId(ProcessId(0))).unwrap();
    let b_key = keys.remove(&SignerId(ProcessId(1))).unwrap();
    let mut group = c.benchmark_group("signatures");
    group.bench_function("sign_1k", |bch| bch.iter(|| Signature::sign(&a, &data)));
    group.bench_function("double_sign_verify_1k", |bch| {
        bch.iter(|| {
            let double = SingleSigned::new((), &data, &a).with_share(&data, &b_key);
            double
                .verify(&dir, &data, (a.signer, b_key.signer))
                .unwrap();
        })
    });
    group.finish();
}

criterion_group!(benches, bench_crypto);
criterion_main!(benches);
