//! Micro-benchmarks of the hot operations the paper benchmarked in §8.A
//! (Bloom-filter lookup/insert, signature verification) plus the rest of
//! the per-packet fast path (pre-check, tag codec, names, wire, tables).
//!
//! The simulator never charges *our* wall-clock costs — it injects the
//! paper's measured distributions — so these benches exist to (a) sanity
//! check that signature verification dominates Bloom-filter operations by
//! orders of magnitude in our implementations too and (b) track
//! performance of the substrate itself.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

use tactic::access::AccessLevel;
use tactic::access_path::AccessPath;
use tactic::precheck::{content_precheck, edge_precheck};
use tactic::tag::{SignedTag, Tag};
use tactic_bloom::{BloomFilter, BloomParams};
use tactic_crypto::schnorr::KeyPair;
use tactic_ndn::cs::ContentStore;
use tactic_ndn::face::FaceId;
use tactic_ndn::fib::Fib;
use tactic_ndn::name::Name;
use tactic_ndn::packet::{Data, Interest, Packet, Payload};
use tactic_ndn::pit::Pit;
use tactic_ndn::wire;
use tactic_sim::time::SimTime;

fn sample_tag(kp: &KeyPair) -> SignedTag {
    Tag {
        provider_key_locator: "/prov0/KEY/1".parse().unwrap(),
        access_level: AccessLevel::Level(2),
        client_key_locator: "/prov0/users/u7/KEY".parse().unwrap(),
        access_path: AccessPath::of([7, 42]),
        expiry: SimTime::from_secs(10),
    }
    .sign(kp)
}

fn bench_bloom(c: &mut Criterion) {
    let mut g = c.benchmark_group("bloom");
    let mut bf = BloomFilter::new(BloomParams::paper(500));
    for i in 0..400u64 {
        bf.insert(&i.to_le_bytes());
    }
    g.bench_function("lookup_hit", |b| {
        b.iter(|| black_box(bf.contains(black_box(&42u64.to_le_bytes()))))
    });
    g.bench_function("lookup_miss", |b| {
        b.iter(|| black_box(bf.contains(black_box(&999_999u64.to_le_bytes()))))
    });
    g.bench_function("insert", |b| {
        let mut i = 0u64;
        b.iter_batched(
            || BloomFilter::new(BloomParams::paper(500)),
            |mut bf| {
                i += 1;
                bf.insert(&i.to_le_bytes());
                black_box(bf.lifetime_insertions())
            },
            BatchSize::SmallInput,
        )
    });
    g.bench_function("estimated_fpp", |b| {
        b.iter(|| black_box(bf.estimated_fpp()))
    });
    g.finish();
}

fn bench_schnorr(c: &mut Criterion) {
    let mut g = c.benchmark_group("schnorr");
    let kp = KeyPair::derive(b"/prov0", 0);
    let msg = b"the tag bytes to be signed for benchmarking purposes";
    let sig = kp.sign(msg);
    g.bench_function("sign", |b| b.iter(|| black_box(kp.sign(black_box(msg)))));
    g.bench_function("verify", |b| {
        b.iter(|| black_box(kp.public().verify(black_box(msg), black_box(&sig))))
    });
    g.finish();
}

fn bench_tag(c: &mut Criterion) {
    let mut g = c.benchmark_group("tag");
    let kp = KeyPair::derive(b"/prov0", 0);
    let tag = sample_tag(&kp);
    let encoded = tag.encode();
    let name: Name = "/prov0/obj3/c7".parse().unwrap();
    let locator: Name = "/prov0/KEY/1".parse().unwrap();
    g.bench_function("encode", |b| b.iter(|| black_box(tag.encode())));
    g.bench_function("decode", |b| {
        b.iter(|| black_box(SignedTag::decode(black_box(&encoded))))
    });
    g.bench_function("verify", |b| b.iter(|| black_box(tag.verify(&kp.public()))));
    g.bench_function("precheck_edge", |b| {
        b.iter(|| {
            black_box(edge_precheck(
                &tag.tag,
                black_box(&name),
                SimTime::from_secs(1),
            ))
        })
    });
    g.bench_function("precheck_content", |b| {
        b.iter(|| {
            black_box(content_precheck(
                &tag.tag,
                AccessLevel::Level(1),
                black_box(&locator),
            ))
        })
    });
    g.bench_function("bloom_key", |b| b.iter(|| black_box(tag.bloom_key())));
    g.finish();
}

fn bench_ndn(c: &mut Criterion) {
    let mut g = c.benchmark_group("ndn");
    g.bench_function("name_parse", |b| {
        b.iter(|| black_box("/prov0/obj3/c7".parse::<Name>().unwrap()))
    });
    let kp = KeyPair::derive(b"/prov0", 0);
    let mut interest = Interest::new("/prov0/obj3/c7".parse().unwrap(), 1234);
    tactic::ext::set_interest_tag(&mut interest, sample_tag(&kp));
    let pkt = Packet::from(interest);
    let encoded = wire::encode(&pkt);
    g.bench_function("wire_encode_interest", |b| {
        b.iter(|| black_box(wire::encode(&pkt)))
    });
    g.bench_function("wire_decode_interest", |b| {
        b.iter(|| black_box(wire::decode(black_box(&encoded)).unwrap()))
    });
    g.bench_function("wire_size_data_8k", |b| {
        let d = Packet::from(Data::new(
            "/prov0/obj3/c7".parse().unwrap(),
            Payload::Synthetic(8192),
        ));
        b.iter(|| black_box(wire::wire_size(&d)))
    });

    let mut fib = Fib::new();
    for i in 0..10 {
        fib.add_route(format!("/prov{i}").parse().unwrap(), FaceId::new(i), 1);
    }
    let lookup_name: Name = "/prov7/obj3/c7".parse().unwrap();
    g.bench_function("fib_lpm", |b| {
        b.iter(|| black_box(fib.next_hop(&lookup_name)))
    });

    g.bench_function("pit_aggregate_cycle", |b| {
        let name: Name = "/prov0/obj3/c7".parse().unwrap();
        b.iter_batched(
            Pit::<Vec<u8>>::new,
            |mut pit| {
                pit.on_interest(&name, FaceId::new(1), 1, SimTime::from_secs(4), vec![]);
                pit.on_interest(&name, FaceId::new(2), 2, SimTime::from_secs(4), vec![]);
                black_box(pit.take(&name))
            },
            BatchSize::SmallInput,
        )
    });

    g.bench_function("cs_insert_get", |b| {
        let d = Data::new("/prov0/obj3/c7".parse().unwrap(), Payload::Synthetic(8192));
        let name = d.name().clone();
        b.iter_batched(
            || ContentStore::new(300),
            |mut cs| {
                cs.insert(d.clone());
                black_box(cs.get(&name).is_some())
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

fn config() -> Criterion {
    Criterion::default()
        .sample_size(20)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_millis(1_000))
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_bloom, bench_schnorr, bench_tag, bench_ndn
}
criterion_main!(benches);
