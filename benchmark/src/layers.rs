//! Family D — layer drivers: one timed loop of calls into one public
//! function per metric, hot cache, median over batches. They say what a
//! layer costs in isolation; the traced run says how much of a workload
//! it is. Inputs mirror `crates/bench/benches/{micro_ops,protocols}.rs`.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

use tactic::access::AccessLevel;
use tactic::access_path::AccessPath;
use tactic::ext;
use tactic::precheck::{content_precheck, edge_precheck};
use tactic::provider::{Provider, ProviderConfig};
use tactic::router::{RouterConfig, RouterRole, TacticRouter};
use tactic::tag::{SignedTag, Tag};
use tactic_baselines::mechanism::Mechanism;
use tactic_baselines::net::run_baseline;
use tactic_bloom::{BloomParams, CachePolicy, ValidationCache};
use tactic_crypto::cert::{CertStore, Certificate};
use tactic_crypto::schnorr::KeyPair;
use tactic_experiments::opts::Verbosity;
use tactic_experiments::runner::{run_grid, scenario_id, GridJob};
use tactic_ndn::cs::ContentStore;
use tactic_ndn::face::FaceId;
use tactic_ndn::fib::Fib;
use tactic_ndn::name::Name;
use tactic_ndn::packet::{Data, Interest, Packet, Payload};
use tactic_ndn::pit::Pit;
use tactic_ndn::wire;
use tactic_net::links::Links;
use tactic_net::plane::{Emit, NodePlane, PlaneCtx};
use tactic_net::transport::{Net, NetConfig, ShardSpec};
use tactic_net::{
    fib_routes_filtered, run_sharded, EdgeDefense, FaultPlan, NoopObserver, RateLimit,
};
use tactic_sim::cost::CostModel;
use tactic_sim::engine::Engine;
use tactic_sim::rng::Rng;
use tactic_sim::time::{SimDuration, SimTime};
use tactic_topology::fleet::FleetSpec;
use tactic_topology::graph::{Graph, LinkSpec, NodeId, Role};
use tactic_topology::roles::{build_topology, Topology};
use tactic_topology::shard::ShardMap;

use crate::ops::Ops;
use crate::schema::Workload;
use crate::stats::median;
use crate::trace::Spans;
use crate::workloads::{FLEET_NODES, SHARDS};

/// How long and how often a driver measures.
#[derive(Debug, Clone, Copy)]
struct Bench {
    /// Wall-clock one batch of a ns/op driver aims for.
    batch: Duration,
    /// Batches per ns/op driver; the metric is their median.
    batches: usize,
    /// Samples of a driver whose one call takes tens of milliseconds.
    slow_samples: usize,
    smoke: bool,
}

impl Bench {
    /// Scales with the `--seconds` window so that all 46 drivers fit
    /// into the share of it the traced run leaves over.
    fn new(seconds: f64, smoke: bool) -> Bench {
        if smoke {
            Bench {
                batch: Duration::from_micros(50),
                batches: 1,
                slow_samples: 1,
                smoke,
            }
        } else {
            Bench {
                batch: Duration::from_secs_f64(seconds / 5_000.0),
                batches: 9,
                slow_samples: 3,
                smoke,
            }
        }
    }

    /// Median ns per call of `op`, in a loop sized to fill one batch.
    fn per_op<T>(&self, mut op: impl FnMut() -> T) -> f64 {
        let mut batch = |iters: u64| {
            let t = Instant::now();
            for _ in 0..iters {
                black_box(op());
            }
            t.elapsed()
        };
        // Doubling also warms caches and the branch predictor.
        let mut iters = 1u64;
        while batch(iters) < self.batch / 2 && iters < 1 << 30 {
            iters *= 2;
        }
        let samples: Vec<f64> = (0..self.batches)
            .map(|_| batch(iters).as_nanos() as f64 / iters as f64)
            .collect();
        median(&samples).expect("at least one batch")
    }

    /// Median ns per operation where each batch needs untimed
    /// preparation: `prepare` builds the state, `run` performs `n`
    /// operations on it.
    fn per_op_prepared<S>(
        &self,
        n: usize,
        mut prepare: impl FnMut() -> S,
        mut run: impl FnMut(S),
    ) -> f64 {
        run(prepare()); // warm-up
        let samples: Vec<f64> = (0..self.batches)
            .map(|_| {
                let state = prepare();
                let t = Instant::now();
                run(state);
                t.elapsed().as_nanos() as f64 / n as f64
            })
            .collect();
        median(&samples).expect("at least one batch")
    }

    /// Median seconds of one slow call, after one untimed call.
    fn seconds<T>(&self, mut call: impl FnMut() -> T) -> f64 {
        if !self.smoke {
            black_box(call());
        }
        let samples: Vec<f64> = (0..self.slow_samples)
            .map(|_| {
                let t = Instant::now();
                black_box(call());
                t.elapsed().as_secs_f64()
            })
            .collect();
        median(&samples).expect("at least one sample")
    }
}

fn name(uri: &str) -> Name {
    uri.parse().expect("static name")
}

/// A 32-byte Bloom key like `SignedTag::bloom_key` produces.
fn bloom_key(i: u64) -> [u8; 32] {
    let mut key = [0u8; 32];
    for (j, chunk) in key.chunks_mut(8).enumerate() {
        chunk.copy_from_slice(
            &i.wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .rotate_left(j as u32 * 16)
                .to_le_bytes(),
        );
    }
    key
}

// ---- tactic-sim -------------------------------------------------------

/// The classic hold model: one `pop` plus one `schedule` at a steady
/// population of `pending` events (the calendar itself is crate-private).
fn engine_hold(b: &Bench, pending: u64, seed: u64) -> f64 {
    let mut rng = Rng::seed_from_u64(seed);
    let span = pending * 1_000;
    let mut engine: Engine<u64> = Engine::new();
    for i in 0..pending {
        engine.schedule(SimTime::from_nanos(rng.below(span)), i);
    }
    b.per_op(|| {
        let ev = engine.pop().expect("the population is steady");
        engine.schedule_after(SimDuration::from_nanos(1 + rng.below(span)), ev);
    })
}

// ---- tactic-ndn -------------------------------------------------------

fn catalog_names(n: usize) -> Vec<Name> {
    (0..n)
        .map(|i| name(&format!("/prov{}/obj{}/c{}", i % 10, i / 10 % 50, i / 500)))
        .collect()
}

fn ndn_drivers(b: &Bench, out: &mut Drivers<'_>) {
    out.run("ndn.name.parse_ns", || {
        Ok(b.per_op(|| "/prov0/obj3/c7".parse::<Name>()))
    });
    out.run("ndn.name.hash_lookup_ns", || {
        let keys = catalog_names(1_000);
        // Looked up through separately parsed names, as a packet's would be.
        let table: HashMap<Name, usize> = catalog_names(1_000).into_iter().zip(0..).collect();
        let mut i = 0;
        let ns = b.per_op(|| {
            i = (i + 1) % keys.len();
            table.get(&keys[i]).copied()
        });
        Ok(ns)
    });
    out.run("ndn.name.cmp_ns", || {
        let (x, y) = (name("/prov0/obj3/c7"), name("/prov0/obj3/c7"));
        Ok(b.per_op(|| black_box(&x) == black_box(&y)))
    });
    out.run("ndn.name.prefix_ns", || {
        let full = name("/prov0/obj3/c7");
        Ok(b.per_op(|| black_box(&full).prefix(1).is_prefix_of(&full)))
    });

    let expiry = SimTime::from_secs(4);
    let resident = |pit: &mut Pit<()>| {
        for (i, n) in catalog_names(1_000).iter().enumerate() {
            pit.on_interest(n, FaceId::new(1), i as u64, expiry, ());
        }
    };
    let fresh: Vec<Name> = (0..64)
        .map(|i| name(&format!("/prov0/fresh/c{i}")))
        .collect();
    out.run("ndn.pit.insert_take_ns", || {
        let mut pit = Pit::new();
        resident(&mut pit);
        let mut i = 0;
        let ns = b.per_op(|| {
            i = (i + 1) % fresh.len();
            pit.on_interest(&fresh[i], FaceId::new(1), 1, expiry, ());
            pit.take(&fresh[i])
        });
        Ok(ns)
    });
    out.run("ndn.pit.aggregate_ns", || {
        let mut pit = Pit::new();
        resident(&mut pit);
        let mut i = 0;
        let ns = b.per_op(|| {
            i = (i + 1) % fresh.len();
            pit.on_interest(&fresh[i], FaceId::new(1), 1, expiry, ());
            pit.on_interest(&fresh[i], FaceId::new(2), 2, expiry, ());
            pit.take(&fresh[i])
        });
        Ok(ns)
    });
    out.run("ndn.pit.purge_per_record_ns", || {
        let names = catalog_names(10_000);
        let ns = b.per_op_prepared(
            names.len(),
            || {
                let mut pit = Pit::new();
                for (i, n) in names.iter().enumerate() {
                    pit.on_interest(n, FaceId::new(1), i as u64, SimTime::from_secs(1), ());
                }
                pit
            },
            |mut pit| assert_eq!(pit.purge_expired(SimTime::from_secs(2)), names.len()),
        );
        Ok(ns)
    });

    let chunks: Vec<Data> = catalog_names(1_024)
        .into_iter()
        .map(|n| Data::new(n, Payload::Synthetic(8_192)))
        .collect();
    out.run("ndn.cs.insert_evict_ns", || {
        let mut cs = ContentStore::new(300);
        let mut i = 0;
        // 1024 distinct names through 300 slots: every insert evicts.
        let ns = b.per_op(|| {
            i = (i + 1) % chunks.len();
            cs.insert(chunks[i].clone());
        });
        Ok(ns)
    });
    let mut cs = ContentStore::new(300);
    for d in &chunks[..300] {
        cs.insert(d.clone());
    }
    out.run("ndn.cs.hit_ns", || {
        let mut i = 0;
        let ns = b.per_op(|| {
            i = (i + 1) % 300;
            cs.get(chunks[i].name()).is_some()
        });
        Ok(ns)
    });
    out.run("ndn.cs.miss_ns", || {
        let mut i = 0;
        let ns = b.per_op(|| {
            i = (i + 1) % 300;
            cs.get(chunks[300 + i].name()).is_some()
        });
        Ok(ns)
    });

    out.run("ndn.fib.lpm_ns", || {
        let mut fib = Fib::new();
        for i in 0..10 {
            fib.add_route(name(&format!("/prov{i}")), FaceId::new(i), 1);
        }
        let lookup = name("/prov7/obj3/c7");
        Ok(b.per_op(|| fib.next_hop(black_box(&lookup))))
    });

    let provider = KeyPair::derive(b"/prov0", 0);
    let mut interest = Interest::new(name("/prov0/obj3/c7"), 1234);
    ext::set_interest_tag(&mut interest, &sample_tag(&provider, 7));
    let interest = Packet::from(interest);
    let encoded = wire::encode(&interest);
    out.run("ndn.wire.size_ns", || {
        let data = Packet::from(Data::new(name("/prov0/obj3/c7"), Payload::Synthetic(8_192)));
        Ok(b.per_op(|| wire::wire_size(black_box(&data))))
    });
    out.run("ndn.wire.encode_ns", || {
        Ok(b.per_op(|| wire::encode(black_box(&interest))))
    });
    out.run("ndn.wire.decode_ns", || {
        Ok(b.per_op(|| wire::decode(black_box(&encoded)).expect("round trip")))
    });
}

// ---- tactic-bloom -----------------------------------------------------

/// `ValidationCache::contains` / `insert` in steady state, amortised
/// resets (monolithic) or rotations (generational) included.
fn bloom_drivers(
    b: &Bench,
    out: &mut Drivers<'_>,
    [hit, miss, insert]: [&'static str; 3],
    policy: CachePolicy,
) {
    let params = BloomParams::paper(500);
    let mut cache = ValidationCache::new(params, policy);
    // 200 keys: within the monolithic capacity and within the live
    // generations of one partition, so every one of them is still a hit.
    let resident: Vec<[u8; 32]> = (0..200).map(bloom_key).collect();
    for k in &resident {
        cache.insert(b"/prov0", k);
    }
    out.run(hit, || {
        let mut i = 0;
        let mut hits = 0u64;
        let mut calls = 0u64;
        let ns = b.per_op(|| {
            i = (i + 1) % resident.len();
            calls += 1;
            hits += u64::from(cache.contains(b"/prov0", &resident[i]));
        });
        if hits == calls {
            Ok(ns)
        } else {
            Err(format!("{} of {calls} resident keys missed", calls - hits))
        }
    });
    out.run(miss, || {
        let absent: Vec<[u8; 32]> = (1_000_000..1_000_256).map(bloom_key).collect();
        let mut i = 0;
        Ok(b.per_op(|| {
            i = (i + 1) % absent.len();
            cache.contains(b"/prov0", &absent[i])
        }))
    });
    out.run(insert, || {
        let mut cache = ValidationCache::new(params, policy);
        let mut i = 0u64;
        let ns = b.per_op(|| {
            i += 1;
            cache.insert(b"/prov0", &bloom_key(i))
        });
        Ok(ns)
    });
}

// ---- tactic (core) ----------------------------------------------------

const UP: FaceId = FaceId::new(0);
const CLIENT: FaceId = FaceId::new(1);

fn sample_tag(provider: &KeyPair, user: u64) -> SignedTag {
    Tag {
        provider_key_locator: name("/prov0/KEY/1"),
        access_level: AccessLevel::Level(2),
        client_key_locator: name(&format!("/prov0/users/u{user}/KEY")),
        access_path: AccessPath::EMPTY,
        expiry: SimTime::from_secs(100),
    }
    .sign(provider)
}

/// One router with the provider's certificate, a route up and a client face.
struct RouterBench {
    provider: KeyPair,
    certs: CertStore,
}

impl RouterBench {
    fn new() -> RouterBench {
        let anchor = KeyPair::derive(b"anchor", 0);
        let provider = KeyPair::derive(b"/prov0", 0);
        let mut certs = CertStore::new();
        certs.add_anchor(anchor.public());
        certs
            .register(Certificate::issue("/prov0", provider.public(), &anchor))
            .expect("anchored");
        RouterBench { provider, certs }
    }

    fn router(&self, role: RouterRole) -> TacticRouter {
        let mut r = TacticRouter::new(RouterConfig::paper(role), self.certs.clone());
        r.add_route(name("/prov0"), UP, 1);
        r.mark_downstream(CLIENT);
        r
    }

    fn tag(&self, user: u64) -> SignedTag {
        sample_tag(&self.provider, user)
    }
}

fn content(n: &Name) -> Data {
    let mut d = Data::new(n.clone(), Payload::Synthetic(8_192));
    ext::set_data_access_level(&mut d, AccessLevel::Level(1));
    ext::set_data_key_locator(&mut d, &name("/prov0/KEY/1"));
    d
}

fn tagged(n: &Name, tag: &SignedTag, nonce: u64) -> Interest {
    let mut i = Interest::new(n.clone(), nonce);
    ext::set_interest_tag(&mut i, tag);
    i
}

/// Operations per prepared router batch: enough to amortise the timer,
/// few enough that PIT and content store stay small.
const ROUTER_BATCH: usize = 256;

fn core_drivers(b: &Bench, out: &mut Drivers<'_>) {
    let rb = RouterBench::new();
    let tag = rb.tag(7);
    let encoded = tag.encode();
    let chunk = name("/prov0/obj3/c7");
    let locator = name("/prov0/KEY/1");
    out.run("core.tag.encode_ns", || Ok(b.per_op(|| tag.encode())));
    out.run("core.tag.decode_ns", || {
        Ok(b.per_op(|| SignedTag::decode(black_box(&encoded)).expect("round trip")))
    });
    out.run("core.ext.interest_tag_ns", || {
        let interest = tagged(&chunk, &tag, 1);
        Ok(b.per_op(|| ext::interest_tag(black_box(&interest)).expect("tagged")))
    });
    out.run("core.p1.precheck_edge_ns", || {
        Ok(b.per_op(|| edge_precheck(&tag.tag, black_box(&chunk), SimTime::from_secs(1))))
    });
    out.run("core.p1.precheck_content_ns", || {
        Ok(b.per_op(|| content_precheck(&tag.tag, AccessLevel::Level(1), black_box(&locator))))
    });

    let cost = CostModel::free();
    // All under the tags' provider, or the edge pre-check rejects them.
    let names: Vec<Name> = (0..ROUTER_BATCH)
        .map(|i| name(&format!("/prov0/obj{}/c{}", i % 50, i / 50)))
        .collect();
    let now = SimTime::ZERO;

    // Protocol 2, one round trip through an edge router: the client's
    // Interest (pre-check, filter lookup, F set, forwarded) and the Data
    // coming back (PIT take, cache, delivery). A tag already in the
    // filter travels with F > 0 and is delivered as is; a tag new to it
    // travels with F = 0 and is inserted when upstream vouches for it.
    let round_trips = |tags: &[SignedTag], f: f64| -> Vec<(Interest, Data)> {
        names
            .iter()
            .zip(tags.iter().cycle())
            .zip(1..)
            .map(|((n, t), nonce)| {
                let mut d = content(n);
                ext::set_data_tag(&mut d, t);
                ext::set_data_flag_f(&mut d, f);
                (tagged(n, t, nonce), d)
            })
            .collect()
    };
    let edge_round_trips = |r: &mut TacticRouter, rng: &mut Rng, work: Vec<(Interest, Data)>| {
        let mut delivered = 0;
        for (interest, data) in work {
            black_box(r.handle_interest(interest, CLIENT, now, rng, &cost));
            delivered += r.handle_data(data, UP, now, rng, &cost).sends.len();
        }
        delivered
    };
    out.run("core.p2.edge_bf_hit_ns", || {
        let mut seen = (0, 0);
        let ns = b.per_op_prepared(
            ROUTER_BATCH,
            || {
                let mut r = rb.router(RouterRole::Edge);
                let mut rng = Rng::seed_from_u64(1);
                // Prime the filter with one vouched-for round trip.
                let warm = name("/prov0/warm/c0");
                let mut d = content(&warm);
                ext::set_data_tag(&mut d, &tag);
                edge_round_trips(&mut r, &mut rng, vec![(tagged(&warm, &tag, 0), d)]);
                (r, rng, round_trips(std::slice::from_ref(&tag), 0.5))
            },
            |(mut r, mut rng, work)| {
                let delivered = edge_round_trips(&mut r, &mut rng, work);
                seen = (delivered, r.counters().bf_insertions);
            },
        );
        if seen == (ROUTER_BATCH, 1) {
            Ok(ns)
        } else {
            Err(format!(
                "{} of {ROUTER_BATCH} delivered, {} filter insertions after priming",
                seen.0,
                seen.1 - 1
            ))
        }
    });
    out.run("core.p2.edge_bf_miss_ns", || {
        let tags: Vec<SignedTag> = (0..ROUTER_BATCH as u64)
            .map(|u| rb.tag(1_000 + u))
            .collect();
        let mut seen = (0, 0);
        let ns = b.per_op_prepared(
            ROUTER_BATCH,
            || {
                (
                    rb.router(RouterRole::Edge),
                    Rng::seed_from_u64(1),
                    round_trips(&tags, 0.0),
                )
            },
            |(mut r, mut rng, work)| {
                let delivered = edge_round_trips(&mut r, &mut rng, work);
                seen = (delivered, r.counters().bf_insertions);
            },
        );
        if seen == (ROUTER_BATCH, ROUTER_BATCH as u64) {
            Ok(ns)
        } else {
            Err(format!(
                "{} delivered, {} inserted of {ROUTER_BATCH} new tags",
                seen.0, seen.1
            ))
        }
    });

    // Protocol 3: a core router that holds the content.
    let serving_router = |rng: &mut Rng| {
        let mut r = rb.router(RouterRole::Core);
        r.handle_interest(tagged(&chunk, &tag, 1), UP, now, rng, &cost);
        let mut d = content(&chunk);
        ext::set_data_tag(&mut d, &tag);
        r.handle_data(d, UP, now, rng, &cost);
        r
    };
    out.run("core.p3.serve_bf_hit_ns", || {
        let mut rng = Rng::seed_from_u64(1);
        let mut r = serving_router(&mut rng);
        let mut nonce = 1;
        let ns = b.per_op(|| {
            nonce += 1;
            r.handle_interest(tagged(&chunk, &tag, nonce), UP, now, &mut rng, &cost)
        });
        let c = r.counters();
        if c.cache_hits + 1 >= c.interests && c.total_sig_verifications() <= 1 {
            Ok(ns)
        } else {
            Err(format!("not the cached, validated path: {c:?}"))
        }
    });
    out.run("core.p3.serve_verify_ns", || {
        let tags: Vec<SignedTag> = (0..ROUTER_BATCH as u64)
            .map(|u| rb.tag(2_000 + u))
            .collect();
        let mut verifications = 0;
        let ns = b.per_op_prepared(
            ROUTER_BATCH,
            || {
                let mut rng = Rng::seed_from_u64(1);
                let r = serving_router(&mut rng);
                let interests: Vec<Interest> = tags
                    .iter()
                    .zip(2..)
                    .map(|(t, i)| tagged(&chunk, t, i))
                    .collect();
                (r, rng, interests)
            },
            |(mut r, mut rng, interests)| {
                for i in interests {
                    black_box(r.handle_interest(i, UP, now, &mut rng, &cost));
                }
                verifications = r.counters().total_sig_verifications();
            },
        );
        if verifications >= ROUTER_BATCH as u64 {
            Ok(ns)
        } else {
            Err(format!(
                "{verifications} signature verifications for {ROUTER_BATCH} unknown tags"
            ))
        }
    });

    // Protocol 4: two requesters aggregate, one Data fans out to both.
    out.run("core.p4.aggregate_fanout_ns", || {
        let other = rb.tag(8);
        let mut fanned_out = 0;
        let ns = b.per_op_prepared(
            ROUTER_BATCH,
            || {
                let work: Vec<(Interest, Interest, Data)> = names
                    .iter()
                    .map(|n| {
                        let mut d = content(n);
                        ext::set_data_tag(&mut d, &tag);
                        (tagged(n, &tag, 1), tagged(n, &other, 2), d)
                    })
                    .collect();
                (rb.router(RouterRole::Core), Rng::seed_from_u64(1), work)
            },
            |(mut r, mut rng, work)| {
                fanned_out = 0;
                for (first, second, data) in work {
                    r.handle_interest(first, FaceId::new(5), now, &mut rng, &cost);
                    r.handle_interest(second, FaceId::new(6), now, &mut rng, &cost);
                    fanned_out += r.handle_data(data, UP, now, &mut rng, &cost).sends.len();
                }
            },
        );
        if fanned_out == 2 * ROUTER_BATCH {
            Ok(ns)
        } else {
            Err(format!(
                "{fanned_out} Data sent for {ROUTER_BATCH} two-requester entries"
            ))
        }
    });

    out.run("core.provider.issue_tag_ns", || {
        let mut provider = Provider::new(ProviderConfig::paper(name("/prov0")));
        let mut principal = 0;
        let ns = b.per_op(|| {
            principal += 1;
            provider.issue_tag(
                principal % 1_000,
                AccessLevel::Level(1),
                AccessPath::EMPTY,
                SimTime::from_secs(10),
            )
        });
        Ok(ns)
    });
}

// ---- tactic-net -------------------------------------------------------

/// A plane with no logic: the client sends an Interest, the provider
/// answers, the answer triggers the next Interest. What remains is the
/// transport, the engine and the link model.
struct Echo {
    chunk: Name,
}

impl NodePlane for Echo {
    fn on_start(&mut self, _node: NodeId, _ctx: &mut PlaneCtx<'_>, out: &mut Vec<Emit>) {
        out.push(Emit::Send {
            face: FaceId::new(0),
            packet: Packet::Interest(Interest::new(self.chunk.clone(), 1)),
            compute: SimDuration::ZERO,
        });
    }

    fn on_packet(
        &mut self,
        _node: NodeId,
        face: FaceId,
        packet: Packet,
        _ctx: &mut PlaneCtx<'_>,
        out: &mut Vec<Emit>,
    ) {
        let reply = match packet {
            Packet::Interest(i) => {
                Packet::Data(Data::new(i.name().clone(), Payload::Synthetic(64)))
            }
            _ => Packet::Interest(Interest::new(self.chunk.clone(), 1)),
        };
        out.push(Emit::Send {
            face,
            packet: reply,
            compute: SimDuration::ZERO,
        });
    }
}

/// Client and provider joined by one fast link.
fn echo_topology(latency: SimDuration) -> Topology {
    let mut graph = Graph::new();
    let client = graph.add_node(Role::Client);
    let provider = graph.add_node(Role::Provider);
    let spec = LinkSpec {
        bandwidth_bps: 10_000_000_000,
        latency,
    };
    graph.add_link(client, provider, spec);
    Topology {
        graph,
        core_routers: vec![],
        edge_routers: vec![],
        access_points: vec![],
        providers: vec![provider],
        clients: vec![client],
        attackers: vec![],
    }
}

fn echo_net(topo: &Topology, duration: SimDuration, shard: Option<ShardSpec>) -> Net<Echo> {
    let config = NetConfig {
        duration,
        mobility: None,
        cost: CostModel::free(),
        faults: FaultPlan::none(),
        sample_every: None,
        profile: false,
        defense: None,
        churn: None,
    };
    let plane = Echo {
        chunk: name("/prov0/obj0/c0"),
    };
    let rng = Rng::seed_from_u64(1);
    match shard {
        None => Net::assemble(topo, Links::build(topo), plane, rng, config),
        Some(s) => Net::assemble_sharded(
            topo,
            Links::build(topo),
            plane,
            rng,
            config,
            NoopObserver,
            s,
        ),
    }
}

fn net_drivers(b: &Bench, out: &mut Drivers<'_>) {
    // The client starts somewhere in the first simulated second, so the
    // horizon reaches well past it.
    let sim_secs = |full: u64| SimDuration::from_millis(if b.smoke { 1_050 } else { full * 1_000 });
    out.run("net.transport.pingpong_ns", || {
        let topo = echo_topology(SimDuration::from_micros(20));
        let mut per_event = Vec::new();
        for _ in 0..b.slow_samples {
            let net = echo_net(&topo, sim_secs(3), None);
            let t = Instant::now();
            let (_, _, report) = net.run();
            let wall = t.elapsed();
            if report.deliveries < 1_000 {
                return Err(format!("only {} deliveries", report.deliveries));
            }
            per_event.push(wall.as_nanos() as f64 / report.events as f64);
        }
        Ok(median(&per_event).expect("at least one sample"))
    });
    out.run("net.sharded.empty_epoch_ns", || {
        // One cut link, one packet in flight: every epoch is a barrier
        // and a mailbox hand-over with next to no work inside.
        let latency = SimDuration::from_micros(100);
        let topo = echo_topology(latency);
        let duration = sim_secs(2);
        let mut per_epoch = Vec::new();
        for _ in 0..b.slow_samples {
            let t = Instant::now();
            let (results, stats) =
                run_sharded(SHARDS, Some(latency), SimTime::ZERO + duration, |shard| {
                    let spec = ShardSpec {
                        k: SHARDS,
                        my_shard: shard,
                        shard_of: vec![0, 1],
                    };
                    echo_net(&topo, duration, Some(spec))
                });
            let wall = t.elapsed();
            let deliveries: u64 = results.iter().map(|(_, _, r)| r.deliveries).sum();
            if stats.epochs < 100 || stats.cross_events < deliveries {
                return Err(format!(
                    "{} epochs, {} of {deliveries} deliveries crossed",
                    stats.epochs, stats.cross_events
                ));
            }
            per_epoch.push(wall.as_nanos() as f64 / stats.epochs as f64);
        }
        Ok(median(&per_epoch).expect("at least one sample"))
    });
    out.run("net.defense.admit_ns", || {
        // Armed but never binding: a million packets per second allowed.
        let clients: Vec<NodeId> = (0..100).map(NodeId).collect();
        let aps: Vec<NodeId> = (100..110).map(NodeId).collect();
        let edges: Vec<NodeId> = (110..120).map(NodeId).collect();
        let limit = RateLimit {
            per_sec: 1_000_000,
            burst: 1_000,
        };
        let mut defense = EdgeDefense::new(Some(limit), Some(u32::MAX), clients, aps, edges);
        let mut i = 0u32;
        let mut refused = 0u64;
        let ns = b.per_op(|| {
            i += 1;
            // Alternates the token bucket (client -> AP) and the face
            // cap (AP -> edge router).
            let (from, to) = if i & 1 == 0 {
                (i / 2 % 100, 100 + i % 10)
            } else {
                (100 + i % 10, 110 + i % 10)
            };
            let verdict = defense.admit(
                NodeId(from),
                NodeId(to),
                SimTime::from_nanos(u64::from(i) * 1_000),
            );
            refused += u64::from(verdict.is_some());
        });
        if refused == 0 {
            Ok(ns)
        } else {
            Err(format!("the non-binding defense refused {refused} packets"))
        }
    });
}

// ---- tactic-topology, tactic-baselines, tactic-experiments ------------

/// Decomposes the fleet workloads' `setup_s`.
fn topology_drivers(b: &Bench, out: &mut Drivers<'_>, seed: u64) {
    let nodes = if b.smoke {
        FLEET_NODES / 10
    } else {
        FLEET_NODES
    };
    let spec = FleetSpec::sized(nodes).to_table_spec();
    let build = || build_topology(&spec, &mut Rng::seed_from_u64(seed).fork(1));
    out.run("topology.build_fleet_s", || Ok(b.seconds(&build)));
    let topo = build();
    out.run("topology.links_fleet_s", || {
        Ok(b.seconds(|| Links::build(&topo)))
    });
    let links = Links::build(&topo);
    out.run("topology.fib_routes_fleet_s", || {
        Ok(b.seconds(|| fib_routes_filtered(&topo, &links, |_, _| true)))
    });
    out.run("topology.partition_fleet_s", || {
        Ok(b.seconds(|| {
            ShardMap::partition(&topo, SHARDS).expect("the fleet outnumbers the shards")
        }))
    });
}

/// The bypass for every TACTIC-router change: same transport and tables,
/// no tags. The `paper_topo1` scenario at a quarter of its horizon.
fn baseline_drivers(b: &Bench, out: &mut Drivers<'_>, seed: u64) {
    let mut scenario = Workload::PaperTopo1.scenario(b.smoke);
    scenario.duration = scenario.duration / 4;
    for (metric, mechanism) in [
        ("baselines.no_ac.run_s", Mechanism::NoAccessControl),
        ("baselines.client_side.run_s", Mechanism::ClientSideAc),
        ("baselines.provider_auth.run_s", Mechanism::ProviderAuthAc),
    ] {
        out.run(metric, || {
            let mut delivered = 0;
            let s =
                b.seconds(|| delivered = run_baseline(&scenario, mechanism, seed).client_received);
            if delivered > 0 {
                Ok(s)
            } else {
                Err("no client received anything".into())
            }
        });
    }
}

/// `run_grid` over eight Topo1 jobs, one worker thread against two.
fn grid_driver(b: &Bench, out: &mut Drivers<'_>, seed: u64) {
    out.run("experiments.grid.speedup_x", || {
        let mut scenario = Workload::PaperTopo1.scenario(b.smoke);
        scenario.duration = scenario.duration / 10;
        let jobs: Vec<GridJob<'_>> = (0..8)
            .map(|i| GridJob {
                label: format!("grid job {i}"),
                topology: 1,
                scenario_id: scenario_id("benchmark_grid", &[seed]),
                run_idx: i,
                scenario: &scenario,
            })
            .collect();
        let one = b.seconds(|| run_grid(&jobs, 1, Verbosity::Quiet).len());
        let two = b.seconds(|| run_grid(&jobs, 2, Verbosity::Quiet).len());
        Ok(one / two)
    });
}

/// Runs drivers as operations and collects their values in table order.
struct Drivers<'a> {
    ops: &'a mut Ops,
    spans: &'a mut Spans,
    values: Vec<(&'static str, f64)>,
}

impl Drivers<'_> {
    fn run(&mut self, metric: &'static str, driver: impl FnOnce() -> Result<f64, String>) {
        let value = self.spans.time(format!("layer.{metric}"), || {
            self.ops.run(metric, || {
                let v = driver()?;
                if v.is_finite() && v > 0.0 {
                    Ok(v)
                } else {
                    Err(format!("measured {v}"))
                }
            })
        });
        self.values.extend(value.map(|v| (metric, v)));
    }
}

/// Runs all of family D. A failed driver is a failed operation and leaves
/// its metric out.
pub fn run(
    seconds: f64,
    smoke: bool,
    seed: u64,
    ops: &mut Ops,
    spans: &mut Spans,
) -> Vec<(&'static str, f64)> {
    let b = Bench::new(seconds, smoke);
    let mut out = Drivers {
        ops,
        spans,
        values: Vec::new(),
    };
    out.run("sim.engine.hold_1e3_ns", || {
        Ok(engine_hold(&b, 1_000, seed))
    });
    out.run("sim.engine.hold_1e6_ns", || {
        Ok(engine_hold(&b, 1_000_000, seed))
    });
    ndn_drivers(&b, &mut out);
    bloom_drivers(
        &b,
        &mut out,
        [
            "bloom.mono.hit_ns",
            "bloom.mono.miss_ns",
            "bloom.mono.insert_ns",
        ],
        CachePolicy::MonolithicReset,
    );
    bloom_drivers(
        &b,
        &mut out,
        [
            "bloom.gen8x2.hit_ns",
            "bloom.gen8x2.miss_ns",
            "bloom.gen8x2.insert_ns",
        ],
        CachePolicy::Generational {
            generations: 8,
            partitions: 2,
        },
    );
    out.run("crypto.schnorr.sign_ns", || {
        let kp = KeyPair::derive(b"/prov0", 0);
        let msg = b"the tag bytes to be signed for benchmarking purposes";
        Ok(b.per_op(|| kp.sign(black_box(msg))))
    });
    out.run("crypto.schnorr.verify_ns", || {
        let kp = KeyPair::derive(b"/prov0", 0);
        let msg = b"the tag bytes to be signed for benchmarking purposes";
        let sig = kp.sign(msg);
        let mut ok = true;
        let ns = b.per_op(|| ok &= kp.public().verify(black_box(msg), black_box(&sig)));
        if ok {
            Ok(ns)
        } else {
            Err("a genuine signature failed to verify".into())
        }
    });
    core_drivers(&b, &mut out);
    net_drivers(&b, &mut out);
    topology_drivers(&b, &mut out, seed);
    baseline_drivers(&b, &mut out, seed);
    grid_driver(&b, &mut out, seed);
    out.values
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_op_grows_with_the_work_it_times() {
        let b = Bench::new(1.0, true);
        let spin = |n: u64| move || (0..n).fold(0u64, |a, x| black_box(a ^ x));
        let (small, large) = (b.per_op(spin(100)), b.per_op(spin(10_000)));
        assert!(large > small * 5.0, "{small} ns vs {large} ns");
    }

    #[test]
    fn bloom_keys_are_distinct() {
        let keys: std::collections::BTreeSet<[u8; 32]> = (0..10_000).map(bloom_key).collect();
        assert_eq!(keys.len(), 10_000);
    }
}
