//! The allocation budget of the steady-state packet path.
//!
//! Heap allocations per Interest are an end-to-end number of this repo
//! (ROADMAP aim 1; `allocs_per_interest` in the benchmark). The count is
//! a pure function of the code and the seed — no clock, no scheduler — so
//! it is gated exactly, on any host:
//!
//! * a whole Topo1 run stays under a per-Interest budget, on the TACTIC
//!   plane and on the baseline plane, and
//! * a warmed [`TacticRouter`] forwards an Interest without allocating,
//!   returns its Data for the one copy the content store keeps, and fans
//!   out to an aggregated requester for one further copy, and
//! * a fleet tick and a baseline router's Data fan-out write straight
//!   into the transport's buffer: they allocate what their packets cost
//!   and nothing per call.
//!
//! This binary has its own counting `#[global_allocator]` and exactly one
//! `#[test]`, so nothing else allocates while a section is counted.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use tactic::access::AccessLevel;
use tactic::access_path::AccessPath;
use tactic::adversary::AdversaryDriver;
use tactic::ext;
use tactic::net::Network;
use tactic::router::{Handled, RouterConfig, RouterRole, TacticRouter};
use tactic::scenario::{Scenario, TopologyChoice};
use tactic::tag::{SignedTag, Tag};
use tactic_baselines::{run_baseline, BaselineSpec, Mechanism};
use tactic_crypto::cert::{CertStore, Certificate};
use tactic_crypto::schnorr::KeyPair;
use tactic_ndn::face::FaceId;
use tactic_ndn::forwarder::{process_data, process_interest, Tables};
use tactic_ndn::name::Name;
use tactic_ndn::packet::{Data, Interest, Packet, Payload};
use tactic_net::harness::{fleet_tick, Node, Plane};
use tactic_net::{AttackClass, AttackDriver, Catalog, CatalogEntry, DropTotals, Pacer, PlaneCtx};
use tactic_sim::cost::CostModel;
use tactic_sim::rng::Rng;
use tactic_sim::time::{SimDuration, SimTime};
use tactic_telemetry::{Hop, NodeRole, NoopProtocolObserver};
use tactic_topology::graph::NodeId;
use tactic_topology::paper::PaperTopology;
use tactic_topology::roles::TopologySpec;

/// Forwards to [`System`], counting every allocation request.
struct Counting;

// A statistic that publishes no other data: `Relaxed`.
static CALLS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`,
// whose `GlobalAlloc` contract the caller already upholds; the counter is
// an atomic and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the layout the caller vouched for.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // `layout`; the caller vouches for `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `f`; returns its result and how many allocations it made.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = CALLS.load(Ordering::Relaxed);
    let out = f();
    (out, CALLS.load(Ordering::Relaxed) - before)
}

const UP: FaceId = FaceId::new(0);
const CLIENT: FaceId = FaceId::new(1);
const CLIENT2: FaceId = FaceId::new(2);

/// How many distinct chunks warm the tables, and how many more each
/// counted leg then handles.
const WARM: usize = 600;
const COUNTED: usize = 64;

struct Bench {
    router: TacticRouter,
    rng: Rng,
    cost: CostModel,
    now: SimTime,
    /// Where the sink-based handlers put their packets: reserved once,
    /// cleared between packets.
    sends: Vec<(FaceId, Packet)>,
}

impl Bench {
    fn new(role: RouterRole, provider: &KeyPair) -> Self {
        let anchor = KeyPair::derive(b"anchor", 0);
        let mut certs = CertStore::new();
        certs.add_anchor(anchor.public());
        certs
            .register(Certificate::issue("/prov", provider.public(), &anchor))
            .expect("anchored");
        let mut config = RouterConfig::paper(role);
        // Smaller than the warm-up, so the counted legs also evict.
        config.cs_capacity = WARM / 2;
        let mut router = TacticRouter::new(config, certs);
        router.add_route("/prov".parse().expect("name"), UP, 1);
        router.mark_downstream(CLIENT);
        router.mark_downstream(CLIENT2);
        Bench {
            router,
            rng: Rng::seed_from_u64(1),
            cost: CostModel::free(),
            now: SimTime::from_secs(1),
            sends: Vec::with_capacity(8),
        }
    }

    fn interest(&mut self, interest: Interest, face: FaceId) -> Handled {
        self.sends.clear();
        let sends = &mut self.sends;
        self.router.handle_interest_observed(
            interest,
            face,
            self.now,
            &mut self.rng,
            &self.cost,
            0,
            &mut NoopProtocolObserver,
            &mut None,
            &mut |face, packet| sends.push((face, packet)),
        )
    }

    fn data(&mut self, data: Data) -> Handled {
        self.sends.clear();
        let sends = &mut self.sends;
        self.router.handle_data_observed(
            data,
            UP,
            self.now,
            &mut self.rng,
            &self.cost,
            0,
            &mut NoopProtocolObserver,
            &mut None,
            &mut |face, packet| sends.push((face, packet)),
        )
    }
}

fn chunk_name(i: usize) -> Name {
    format!("/prov/obj{}/c{}", i / 50, i % 50)
        .parse()
        .expect("name")
}

fn tagged(name: &Name, nonce: u64, tag: &Arc<SignedTag>) -> Interest {
    let mut i = Interest::new(name.clone(), nonce);
    ext::set_interest_tag(&mut i, tag.clone());
    // What the access point adds before an edge router sees the packet.
    ext::set_interest_access_path(&mut i, AccessPath::of([9]));
    i
}

/// The chunk as the upstream content router returns it for `tag`.
fn reply(template: &Data, name: &Name, tag: &Arc<SignedTag>, f: f64) -> Data {
    let mut d = Data::new(name.clone(), Payload::Synthetic(1024));
    for e in template.extensions() {
        d.set_extension(e.ty, e.value.clone());
    }
    ext::set_data_tag(&mut d, tag.clone());
    ext::set_data_flag_f(&mut d, f);
    d
}

fn issue(provider: &KeyPair, user: u64) -> Arc<SignedTag> {
    let prefix: Name = "/prov".parse().expect("name");
    Arc::new(
        Tag {
            provider_key_locator: prefix.child("KEY").child("1"),
            access_level: AccessLevel::Level(2),
            client_key_locator: prefix.child("users").child(format!("u{user}")).child("KEY"),
            access_path: AccessPath::EMPTY,
            expiry: SimTime::from_secs(1_000),
        }
        .sign(provider),
    )
}

/// One round trip per chunk through `bench`, counting the Interest legs
/// and the Data legs of the chunks past the warm-up separately. With
/// `second`, every chunk is requested twice before its Data arrives
/// (aggregation) and the Data fans out to both requesters.
fn round_trips(
    bench: &mut Bench,
    face: FaceId,
    tag: &Arc<SignedTag>,
    second: Option<(FaceId, &Arc<SignedTag>)>,
    template: &Data,
    f_in_data: f64,
) -> (u64, u64) {
    let (mut interest_allocs, mut data_allocs) = (0, 0);
    for i in 0..WARM + COUNTED {
        let name = chunk_name(i);
        let first = tagged(&name, 2 * i as u64, tag);
        let joined = second.map(|(face, tag)| (tagged(&name, 2 * i as u64 + 1, tag), face));
        let requesters = 1 + joined.is_some() as usize;
        let data = reply(template, &name, tag, f_in_data);
        let (_, a) = counted(|| {
            bench.interest(first, face);
            assert_eq!(bench.sends.len(), 1, "forwarded upstream");
            if let Some((second, face)) = joined {
                bench.interest(second, face);
                assert!(bench.sends.is_empty(), "aggregated");
            }
        });
        let (_, b) = counted(|| {
            bench.data(data);
            assert_eq!(bench.sends.len(), requesters, "delivered");
        });
        if i >= WARM {
            interest_allocs += a;
            data_allocs += b;
        }
    }
    (interest_allocs, data_allocs)
}

#[test]
fn the_steady_state_packet_path_stays_within_its_allocation_budget() {
    // (a) A whole run. The short horizon still pays for table growth,
    // which a long run amortises; the budget leaves room for that.
    let mut scenario = Scenario::paper(PaperTopology::Topo1);
    scenario.duration = SimDuration::from_secs(2);
    let network = Network::build(&scenario, 7);
    let (report, allocs) = counted(|| network.run());
    let requested = report.delivery.client_requested + report.delivery.attacker_requested;
    assert!(requested > 1_000, "only {requested} Interests requested");
    let per_interest = allocs as f64 / requested as f64;
    assert!(
        per_interest <= 20.0,
        "{allocs} allocations for {requested} Interests = {per_interest:.2} per Interest"
    );
    // The baseline plane (vanilla NDN forwarding), held to the 14.69 per
    // Interest its packet path was last committed at — set-up included,
    // on the 22-node network that commitment was measured on.
    let mut scenario = Scenario::small();
    scenario.topology = TopologyChoice::Custom(TopologySpec {
        core_routers: 10,
        edge_routers: 3,
        providers: 2,
        clients: 5,
        attackers: 2,
    });
    scenario.duration = SimDuration::from_secs(3);
    scenario.objects_per_provider = 10;
    scenario.chunks_per_object = 10;
    let (report, allocs) = counted(|| run_baseline(&scenario, Mechanism::NoAccessControl, 1));
    let requested = report.client_requested + report.attacker_requested;
    assert!(requested > 1_000, "only {requested} Interests requested");
    let per_interest = allocs as f64 / requested as f64;
    assert!(
        per_interest <= 14.69,
        "baseline: {allocs} allocations for {requested} Interests = {per_interest:.2} per Interest"
    );

    // (b) One router, warmed: the tag is in its filter and its PIT and
    // content-store maps are past their growth.
    let provider = KeyPair::derive(b"/prov", 0);
    let tag = issue(&provider, 7);
    let other = issue(&provider, 8);
    let mut template = Data::new(chunk_name(0), Payload::Synthetic(1024));
    ext::set_data_access_level(&mut template, AccessLevel::Level(1));
    ext::set_data_key_locator(&mut template, &"/prov/KEY/1".parse().expect("name"));

    // An edge router: Protocol 2. The first reply carries F = 0, so the
    // edge inserts the tag; from then on its lookups hit.
    let mut edge = Bench::new(RouterRole::Edge, &provider);
    edge.interest(tagged(&chunk_name(WARM + COUNTED), 1, &tag), CLIENT);
    edge.data(reply(&template, &chunk_name(WARM + COUNTED), &tag, 0.0));
    assert_eq!(edge.router.counters().bf_insertions, 1);
    let (interest_leg, data_leg) = round_trips(&mut edge, CLIENT, &tag, None, &template, 1e-4);
    assert_eq!(interest_leg, 0, "edge router, {COUNTED} Interest legs");
    assert!(
        data_leg <= COUNTED as u64,
        "edge router: {data_leg} allocations for {COUNTED} Data legs"
    );
    assert_eq!(edge.router.counters().bf_insertions, 1, "filter hits only");

    // A core router: Protocol 4's forwarding half.
    let mut core = Bench::new(RouterRole::Core, &provider);
    let (interest_leg, data_leg) = round_trips(&mut core, UP, &tag, None, &template, 1e-4);
    assert_eq!(interest_leg, 0, "core router, {COUNTED} Interest legs");
    assert!(
        data_leg <= COUNTED as u64,
        "core router: {data_leg} allocations for {COUNTED} Data legs"
    );

    // Aggregation and fan-out: a second requester joins each entry (its
    // record is the entry's first to live on the heap) and is validated
    // when the Data arrives; it gets a re-annotated copy of its own.
    let mut agg = Bench::new(RouterRole::Core, &provider);
    let joined = Some((CLIENT2, &other));
    let (interest_leg, data_leg) = round_trips(&mut agg, CLIENT, &tag, joined, &template, 0.0);
    assert!(
        interest_leg <= COUNTED as u64,
        "aggregation: {interest_leg} allocations for {COUNTED} second requesters"
    );
    assert!(
        data_leg <= 2 * COUNTED as u64,
        "fan-out: {data_leg} allocations for {COUNTED} two-requester Data legs"
    );

    // (c) The sinks. A fleet tick costs what crafting its Interests
    // costs — there is no per-tick list of them...
    let fleet = || {
        let entry = CatalogEntry {
            prefix: "/prov".parse().expect("name"),
            objects: 50,
            chunks: 50,
        };
        AdversaryDriver::new(
            AttackClass::ForgeTags,
            9,
            1_000,
            Rng::seed_from_u64(7),
            Catalog::new(vec![entry], 0.7),
            Vec::new(),
        )
    };
    let (mut driver, mut twin, mut pacer) = (fleet(), fleet(), Pacer::new(200));
    let mut out = Vec::with_capacity(64);
    let hop = Hop::new(9, NodeRole::Consumer, SimTime::ZERO);
    let (_, tick) = counted(|| {
        fleet_tick(
            &mut driver,
            &mut pacer,
            &mut NoopProtocolObserver,
            hop,
            &mut out,
        )
    });
    assert_eq!(out.len(), 20, "200 Interests/s over one 100 ms tick");
    let (_, crafting) = counted(|| (0..20).for_each(|_| drop(twin.craft())));
    assert_eq!(tick, crafting, "a fleet tick of 20 Interests");

    // ... and a baseline router fanning Data out to two requesters costs
    // what the vanilla pipeline and the one extra copy cost.
    let name = chunk_name(0);
    let pending = || {
        let mut tables: Box<Tables> = Box::new(Tables::new(16));
        tables.fib.add_route("/prov".parse().expect("name"), UP, 1);
        for (nonce, face) in [(1, CLIENT), (2, CLIENT2)] {
            let i = Interest::new(name.clone(), nonce);
            process_interest(&mut tables, &i, face, SimTime::ZERO, Vec::new());
        }
        tables
    };
    let (router, mut twin) = (pending(), pending());
    let data = || Data::new(name.clone(), Payload::Synthetic(1024));
    let (scenario, mut state) = (Scenario::small(), Node::Router(router));
    let plane = BaselineSpec::new(&scenario, Mechanism::NoAccessControl);
    let (mut rng, cost, mut drops) = (
        Rng::seed_from_u64(1),
        CostModel::free(),
        DropTotals::default(),
    );
    let mut ctx = PlaneCtx {
        now: SimTime::ZERO,
        rng: &mut rng,
        cost: &cost,
        profiler: None,
        drops: &mut drops,
    };
    let (mut sends, packet) = (Vec::new(), Packet::Data(data()));
    out.clear();
    let (_, fan_out) = counted(|| {
        let proto = &mut NoopProtocolObserver;
        plane.on_packet(
            &mut state,
            NodeId(0),
            UP,
            packet,
            proto,
            &mut ctx,
            &mut sends,
            &mut out,
        )
    });
    assert_eq!(out.len(), 2, "one Data per pending requester");
    let d = data();
    let (_, pipeline) = counted(|| {
        let action = process_data(&mut twin, &d, SimTime::ZERO);
        drop((action, d.clone()));
    });
    assert_eq!(
        fan_out, pipeline,
        "a baseline router's two-requester fan-out"
    );
}
