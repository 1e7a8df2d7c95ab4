//! The allocation budget of the steady-state packet path.
//!
//! Heap allocations per Interest are an end-to-end number of this repo
//! (ROADMAP aim 1; `allocs_per_interest` in the benchmark). The count is
//! a pure function of the code and the seed — no clock, no scheduler — so
//! it is gated exactly, on any host and on both build profiles:
//!
//! * (a) whole runs — Topo1 and a 2 000-node fleet on the TACTIC plane,
//!   Topo1 under a forged-tag storm, a small network on the baseline
//!   plane — each stay under the per-Interest figure they were last
//!   measured at, and so does a steady-state Interest: what a longer
//!   Topo1 horizon adds, per Interest it adds, and
//! * (b) a warmed [`TacticRouter`] handles an Interest, its Data, the
//!   fan-out to an aggregated requester and the signature check of a tag
//!   new to it without allocating (the one exception: an aggregated
//!   requester's PIT record, the entry's first to live on the heap), and
//! * (c) a fleet tick and a baseline router's Data fan-out write straight
//!   into the transport's buffer: they allocate what their packets cost
//!   and nothing per call, and
//! * (d) what is built once is built once: a provider's second reply for
//!   a chunk, a forging attacker's names and tag bodies, and the event
//!   engine's storage at a steady population cost nothing; naming every
//!   chunk of a fresh object costs the catalog two blocks, a provider's
//!   first reply costs exactly what publishing the chunk under the
//!   request's own name does — its `Content`, once the provider's table
//!   is made — so a chunk's first touch, named and published, costs 52
//!   allocations per 50-chunk object; a forged Interest — crafted, sized,
//!   pre-checked, looked up — nothing once an earlier forgery is gone,
//!   because the attacker rewrites a tag instance nothing holds and
//!   nothing is serialised to be signed, sized or hashed (while every
//!   forgery is held, its tag's `Arc` and the pool's growth, exactly);
//!   a name table of a few
//!   entries is its entry array alone; growing the calendar costs a
//!   handful of blocks, not one per bucket; a saturated validation cache
//!   resets or rotates in place, for nothing.
//!
//! Beside the count, (e) the 2 000-node fleet's heap high-water mark —
//! live requested bytes, build and run — stays under a bytes-per-node
//! ceiling: the other end-to-end quantity of ROADMAP aim 1, gated as
//! exactly, since it too is a function of code and seed.
//!
//! And (f) building a 20 000-node fleet holds at most a bytes-per-node
//! ceiling at once: routing and entitlements cost the rows the model
//! installs, not providers × nodes.
//!
//! And (g) a run's heap high-water mark barely grows with its horizon:
//! what it measures is folded as it goes (latency per second, counts),
//! not listed per delivery, tag request or filter reset.
//!
//! And (h) a client's first window allocates only what is new: its first
//! fill costs its window block and its registration name's component
//! array, and nothing for the sequence number, the chunk it puts back or
//! the retry queue it goes into; storing its first tag, refilling the
//! window from names the catalog holds, and recording latencies within
//! one second cost nothing.
//!
//! And (i) a sharded run allocates the same every time: three shards,
//! build included, count equal twice in one process and stay under the
//! figure they were measured at.
//!
//! And (j) a shard holds what it owns: (e)'s fleet split four ways holds
//! at most a stated margin more at once than one shard does, not four
//! copies of its per-node tables.
//!
//! This binary has its own counting `#[global_allocator]` and exactly one
//! `#[test]`, so nothing else allocates while a section is counted. Each
//! section prints its measured figures beside their ceilings, one line
//! each and outside the counted regions (run with `-- --nocapture` to
//! see them).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use tactic::access::AccessLevel;
use tactic::access_path::AccessPath;
use tactic::adversary::AdversaryDriver;
use tactic::consumer::{Consumer, ConsumerKind};
use tactic::ext;
use tactic::net::{run_scenario_sharded, Network};
use tactic::precheck::edge_precheck;
use tactic::provider::{Provider, ProviderConfig};
use tactic::router::{RouterConfig, RouterRole, TacticRouter};
use tactic::scenario::{AttackPlan, FaultEvent, FaultKind, Scenario, TopologyChoice};
use tactic::tag::{SignedTag, Tag};
use tactic_baselines::{run_baseline, BaselineSpec, Mechanism};
use tactic_bloom::{BloomParams, CacheChurn, CachePolicy, ValidationCache};
use tactic_crypto::cert::{CertStore, Certificate};
use tactic_crypto::schnorr::KeyPair;
use tactic_ndn::face::FaceId;
use tactic_ndn::forwarder::{process_data, process_interest, Tables};
use tactic_ndn::name::Name;
use tactic_ndn::packet::{Data, ExtValue, Interest, Packet, Payload};
use tactic_ndn::pit::{Pit, PitEntry};
use tactic_ndn::table::NameTable;
use tactic_net::harness::{fleet_tick, FleetNode, Plane, Station};
use tactic_net::{
    AttackClass, Catalog, CatalogEntry, DropTotals, PlaneCtx, RequestPolicy, Requester,
};
use tactic_sim::cost::CostModel;
use tactic_sim::engine::Engine;
use tactic_sim::rng::Rng;
use tactic_sim::stats::TimeSeries;
use tactic_sim::time::{SimDuration, SimTime};
use tactic_telemetry::{Hop, NodeRole, NoopProtocolObserver};
use tactic_topology::fleet::FleetSpec;
use tactic_topology::graph::NodeId;
use tactic_topology::paper::PaperTopology;
use tactic_topology::roles::TopologySpec;

/// Forwards to [`System`], counting every allocation request and the
/// bytes requested and not yet freed.
struct Counting;

// Statistics that publish no other data: `Relaxed`.
static CALLS: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// `bytes` more are live.
fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// whose `GlobalAlloc` contract the caller already upholds; the counters
// are atomics and never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        grew(layout.size());
        // SAFETY: the layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        grew(layout.size());
        // SAFETY: the layout the caller vouched for.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        match new_size.checked_sub(layout.size()) {
            Some(more) => grew(more),
            None => _ = LIVE.fetch_sub(layout.size() - new_size, Ordering::Relaxed),
        }
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // `layout`; the caller vouches for `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Prints one measured figure beside its bound, for the log of a run
/// with `--nocapture`. Call it outside counted regions: printing
/// allocates.
fn show(
    section: &str,
    what: &str,
    measured: impl std::fmt::Display,
    bound: impl std::fmt::Display,
) {
    println!("({section}) {what}: {measured} [{bound}]");
}

/// Runs `f`; returns its result and how many allocations it made.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = CALLS.load(Ordering::Relaxed);
    let out = f();
    (out, CALLS.load(Ordering::Relaxed) - before)
}

/// Runs `f`; returns its result and the most bytes it had live at once,
/// over what was live before.
fn high_water<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let out = f();
    (out, PEAK.load(Ordering::Relaxed) - before)
}

/// A tag-forging attacker (principal 9, 200 Interests/s) fielded over
/// `catalog`, with a 1 s request lifetime.
fn storm_fleet(catalog: Arc<Catalog>) -> FleetNode<AdversaryDriver> {
    let driver = AdversaryDriver::new(AttackClass::ForgeTags, &catalog, Vec::new());
    let policy = Arc::new(RequestPolicy {
        catalog,
        window: 5,
        timeout: SimDuration::from_secs(1),
        per_session_names: false,
        retransmit: None,
    });
    FleetNode::new(9, 200, &policy, &Rng::seed_from_u64(7), driver)
}

const UP: FaceId = FaceId::new(0);
const CLIENT: FaceId = FaceId::new(1);
const CLIENT2: FaceId = FaceId::new(2);

/// Section (a)'s ceilings: allocations per Interest offered, each the
/// measured figure (1.081, 1.172, 0.683, 0.581 — the baseline 0.584
/// while the test harness captures output; the storm 1.030 while every
/// forgery was a new tag instance; 1.786, 1.179, 1.405, 0.699
/// (0.702 captured) while every chunk name the catalog handed out was a
/// block of its own, not a view into its object's one block, 0.721
/// baseline while its provider built a
/// fresh `Data` per reply; 1.835, 1.589, 1.427, 0.733
/// while short name components, a user's retry queue, its tag wallet and
/// its latency buckets were heap blocks; 1.895, 1.897, 1.440,
/// 0.779 while every user listed each delivery's latency; 2.752, 1.907,
/// 1.926, 0.779 while a provider built a second copy of each chunk's
/// name for its reply; 2.752, 1.905, 1.925, 0.786 before that; 2.771, 1.909,
/// 1.926, 0.797 while the name tables were std hash maps; 3.566, 2.331,
/// 3.220, 0.797 while a tag's encoding was built to size, key and check
/// it and the bytes a signature covers were collected into a buffer;
/// 4.315, 2.565, 3.649, 0.801 while signing a chunk built a sort list and
/// every user link row, face row and busy lane was a heap block; at the
/// commit before the packet path left the allocator alone 11.02, 10.90,
/// 12.15, 2.25) rounded up to two decimals, as (e) and (f) are held
/// (rounded up to one decimal, the baseline's 0.699 sat 14 % under its
/// ceiling of 0.8).
const TOPO1_CEILING: f64 = 1.09;
const FLEET_CEILING: f64 = 1.18;
const STORM_CEILING: f64 = 0.69;
const BASELINE_CEILING: f64 = 0.59;

/// Section (a)'s two Topo1 horizons, and its ceiling for what an
/// Interest costs between them — a steady-state Interest, where the
/// short horizon has paid most first touches: the measured figure
/// (0.474: 11 512 allocations for 24 282 Interests) rounded up to two
/// decimals. Both runs together take about 2.5 s on the debug profile.
const SHORT_TOPO1_SECS: u64 = 2;
const LONG_TOPO1_SECS: u64 = 10;
const STEADY_CEILING: f64 = 0.48;

/// Section (d)'s exact count for a forging attacker's pool growing from
/// the one instance its warm-up kept to [`COUNTED`] held ones: a
/// `VecDeque` of four slots doubling to 64, four reallocations.
const FORGE_POOL_GROWTH: u64 = 4;

/// Section (d)'s exact count for a provider's first reply, for its first
/// chunk: the table of published chunks and the chunk's `Content`; the
/// name is the request's, and the signature and the reply's annotations
/// cost nothing. (3 while the provider built the chunk's name a second
/// time; 4 while the bytes a signature covers were collected into a
/// buffer.)
const FIRST_CHUNK_ALLOCS: u64 = 2;

/// Section (e)'s fleet and its ceiling: the heap high-water mark of its
/// build and 1 s run in KB (10³ B) per node, the measured figure (2.359;
/// 2.578 while every user kept its own copy of the request policy and
/// `usize` chunk indices in 80-byte window slots, a node slot held an
/// access point's relay and link rows grew by doubling; 2.737 while
/// short name components, a user's retry queue, its tag
/// wallet and its latency buckets were heap blocks; 2.852 while every
/// user listed each delivery's latency, 2.803 when
/// last recorded before that; 3.387 while content stores kept whole
/// packets in 112-byte slots under a std hash map; 3.460 while every tag
/// kept its encoding; 6.938 while the calendar stored the events past
/// the horizon and every user kept hash tables and one heap block per
/// link row) rounded up to one decimal.
const FLEET_NODES: usize = 2_000;
const FLEET_HEAP_CEILING_KB: f64 = 2.4;

/// Section (f)'s fleet and its ceiling: the heap high-water mark of
/// building it, run excluded, in B per node, the measured figure
/// (1 082.5; 1 231.9 while users were 416 bytes, node slots 56 and link
/// rows grew by doubling; 1 240.0 while short name components were heap
/// blocks;
/// 1 262.6 while users and routers held lists for their
/// latencies, tag instants and requests per reset; 1 359.5 while every
/// provider's Dijkstra walked the whole fleet, all providers' per-node
/// tables were held at once and every provider kept its own copy of the
/// entitlement registry) rounded up to two significant digits.
const BUILD_NODES: usize = 20_000;
const BUILD_HEAP_CEILING_B: f64 = 1_100.0;

/// Section (g)'s horizons and its ceiling: how many more bytes a small
/// run holds at once at the long horizon than at the short one, the
/// measured figure (9 368; 9 344 while a user's latency buckets were a
/// `Vec`, 690 293 while every delivered chunk's
/// latency was listed twice and every tag request, tag receipt and
/// filter reset once) rounded up to two significant digits.
const SHORT_SECS: u64 = 10;
const LONG_SECS: u64 = 40;
const HORIZON_GROWTH_CEILING_B: usize = 9_400;

/// Section (i)'s shard count and its ceiling: the allocations of one
/// small run at that count, build included — the measured figure, 1 692
/// on the debug profile while the test harness captures output (each of
/// the two spawned shards costs four allocations more then; 1 684 with
/// `--nocapture`, 1 691 and 1 683 on release). 480 fewer than while
/// every chunk name the catalogs handed out was a block of its own
/// (2 172, 2 164, 2 171, 2 163): a touched object's names are now views
/// into one block, listed in a second. Thirty-nine fewer than
/// while link rows grew by doubling (2 211, 2 203, 2 210, 2 202): each
/// row of more than one link is now one block, which more than pays for
/// the shards' shared request policies and relay arenas. That was one
/// more than while every
/// shard copied the owner list and kept a down flag per node of the
/// world (2 210, 2 202, 2 209, 2 201): the shared map's own three blocks,
/// the world's shared hold, shard 0's face table and node vector resized
/// to what it owns and back, less the three shards' two copies each.
/// While the shards traded mail through a coordinator thread and
/// channels, the same run made 7 140 allocations, then 7 139.
const SHARDS: usize = 3;
const SHARDED_ALLOCS: u64 = 1_692;

/// Section (j)'s shard count and its ceiling: the heap high-water mark
/// of section (e)'s fleet, build and 1 s run through
/// `run_scenario_sharded`, at that count over the same at one shard. The
/// measured figure is 1.055 (the four shards' catalogs, providers,
/// engines and mailboxes); the ceiling leaves it a margin of a twentieth.
/// While every shard held a node slot, an RNG, link rows and an event-key
/// counter for every node of the world and its own copy of the owner
/// list, and the world lived as long as the run, it was 1.262.
const SHARD_MEMORY_K: usize = 4;
const SHARD_MEMORY_CEILING: f64 = 1.1;

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

    fn interest(&mut self, interest: Interest, face: FaceId) {
        self.handle(Packet::Interest(interest), face);
    }

    fn data(&mut self, data: Data) {
        self.handle(Packet::Data(data), UP);
    }

    fn handle(&mut self, packet: Packet, face: FaceId) {
        self.sends.clear();
        let sends = &mut self.sends;
        let mut drops = DropTotals::default();
        let ctx = &mut PlaneCtx {
            now: self.now,
            rng: &mut self.rng,
            cost: &self.cost,
            profiler: None,
            drops: &mut drops,
        };
        let send = &mut |face, packet| sends.push((face, packet));
        self.router
            .handle(packet, face, 0, &mut NoopProtocolObserver, ctx, send);
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
fn reply(locator: &ExtValue, name: &Name, tag: &Arc<SignedTag>, f: f64) -> Data {
    let mut d = Data::new(name.clone(), Payload::Synthetic(1024));
    ext::set_data_access_level(&mut d, AccessLevel::Level(1));
    d.set_extension(ext::EXT_KEY_LOCATOR, locator.clone());
    ext::set_data_tag(&mut d, tag.clone());
    ext::set_data_flag_f(&mut d, f);
    d
}

fn issue(provider: &KeyPair, user: u64) -> Arc<SignedTag> {
    let name = |uri: String| uri.parse::<Name>().expect("name");
    Arc::new(
        Tag {
            provider_key_locator: name("/prov/KEY/1".into()),
            access_level: AccessLevel::Level(2),
            client_key_locator: name(format!("/prov/users/u{user}/KEY")),
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
    locator: &ExtValue,
    f_in_data: f64,
) -> (u64, u64) {
    let (mut interest_allocs, mut data_allocs) = (0, 0);
    for i in 0..WARM + COUNTED {
        let name = chunk_name(i);
        let first = tagged(&name, 2 * i as u64, tag);
        let joined = second.map(|(face, tag)| (tagged(&name, 2 * i as u64 + 1, tag), face));
        let requesters = 1 + joined.is_some() as usize;
        let data = reply(locator, &name, tag, f_in_data);
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
    // (a) Whole runs, set-up excluded as in the benchmark. The short
    // horizons still pay for table growth, which a long run amortises;
    // each ceiling is the measured figure rounded up to two decimals.
    // Each returns the heap high-water mark of its build and run.
    let tactic_run = |scenario: &Scenario, offered_by_fleet: u64, ceiling: f64, what: &str| {
        let ((report, allocs), peak) = high_water(|| {
            let network = Network::build(scenario, 7);
            counted(|| network.run())
        });
        let requested = report.delivery.client_requested + report.delivery.attacker_requested;
        assert!(
            requested > 500,
            "{what}: only {requested} Interests requested"
        );
        let offered = requested + offered_by_fleet;
        let per_interest = allocs as f64 / offered as f64;
        show(
            "a",
            what,
            format!("{per_interest:.3} per Interest"),
            format!("≤ {ceiling}"),
        );
        assert!(
            per_interest <= ceiling,
            "{what}: {allocs} allocations for {offered} Interests = {per_interest:.3} per Interest"
        );
        (peak, allocs, offered)
    };
    let mut topo1 = Scenario::paper(PaperTopology::Topo1);
    topo1.duration = SimDuration::from_secs(SHORT_TOPO1_SECS);
    let (_, short_allocs, short_offered) = tactic_run(&topo1, 0, TOPO1_CEILING, "Topo1");
    // A steady-state Interest: what a longer horizon adds, per Interest
    // it adds. First touches are mostly paid by the short one.
    topo1.duration = SimDuration::from_secs(LONG_TOPO1_SECS);
    let (_, long_allocs, long_offered) = tactic_run(&topo1, 0, TOPO1_CEILING, "Topo1, longer");
    let steady = (long_allocs - short_allocs) as f64 / (long_offered - short_offered) as f64;
    let (measured, ceiling) = (
        format!(
            "{} allocations for {} Interests = {steady:.3} per Interest",
            long_allocs - short_allocs,
            long_offered - short_offered
        ),
        format!("≤ {STEADY_CEILING}"),
    );
    show("a", "Topo1 steady state", measured, ceiling);
    assert!(
        steady <= STEADY_CEILING,
        "Topo1 from {SHORT_TOPO1_SECS} s to {LONG_TOPO1_SECS} s: {steady:.3} allocations per Interest"
    );

    let mut fleet = Scenario::small();
    fleet.topology = TopologyChoice::Custom(FleetSpec::sized(FLEET_NODES).to_table_spec());
    fleet.duration = SimDuration::from_secs(1);
    fleet.objects_per_provider = 10;
    fleet.chunks_per_object = 10;
    let (peak, ..) = tactic_run(&fleet, 0, FLEET_CEILING, "2 000-node fleet");
    // (e) What the fleet holds at once, per node.
    let per_node_kb = peak as f64 / FLEET_NODES as f64 / 1_000.0;
    let (measured, ceiling) = (
        format!("{per_node_kb:.3} KB"),
        format!("≤ {FLEET_HEAP_CEILING_KB} KB"),
    );
    show("e", "2 000-node fleet heap per node", measured, ceiling);
    assert!(
        per_node_kb <= FLEET_HEAP_CEILING_KB,
        "2 000-node fleet: heap high-water {peak} B = {per_node_kb:.3} KB per node"
    );

    // (f) What building a fleet holds at once, per node.
    let mut big = fleet.clone();
    big.topology = TopologyChoice::Custom(FleetSpec::sized(BUILD_NODES).to_table_spec());
    let (network, peak) = high_water(|| Network::build(&big, 7));
    drop(network);
    let per_node = peak as f64 / BUILD_NODES as f64;
    let (measured, ceiling) = (
        format!("{per_node:.1} B"),
        format!("≤ {BUILD_HEAP_CEILING_B} B"),
    );
    show(
        "f",
        "20 000-node fleet build heap per node",
        measured,
        ceiling,
    );
    assert!(
        per_node <= BUILD_HEAP_CEILING_B,
        "20 000-node fleet build: heap high-water {peak} B = {per_node:.1} B per node"
    );

    // (g) What a run holds at once, at two horizons: the run state that
    // grows with it is a bucket per second and user, not a record per
    // delivery.
    let small_run_peak = |secs| {
        let mut small = Scenario::small();
        small.duration = SimDuration::from_secs(secs);
        high_water(|| Network::build(&small, 7).run()).1
    };
    let (short, long) = (small_run_peak(SHORT_SECS), small_run_peak(LONG_SECS));
    let growth = long.saturating_sub(short);
    let (measured, ceiling) = (
        format!("{growth} B"),
        format!("≤ {HORIZON_GROWTH_CEILING_B} B"),
    );
    show(
        "g",
        "small run heap growth, 10 s to 40 s",
        measured,
        ceiling,
    );
    assert!(
        growth <= HORIZON_GROWTH_CEILING_B,
        "small run: heap high-water {short} B at {SHORT_SECS} s, {long} B at {LONG_SECS} s, \
         {growth} B more"
    );

    // A forged-tag storm: every attacker an open-loop source of Interests
    // under a fresh forgery each, which the report does not count.
    let mut storm = Scenario::paper(PaperTopology::Topo1);
    storm.duration = SimDuration::from_secs(1);
    storm.attack = AttackPlan {
        class: Some(AttackClass::ForgeTags),
        intensity: 1_000,
    };
    let forged = storm.topology.spec().attackers as u64 * 1_000;
    tactic_run(&storm, forged, STORM_CEILING, "forged-tag storm");

    // The baseline plane (vanilla NDN forwarding) shares the packet and
    // catalog code — set-up included here, on a 22-node network.
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
    let (measured, ceiling) = (
        format!("{per_interest:.3} per Interest"),
        format!("≤ {BASELINE_CEILING}"),
    );
    show("a", "baseline", measured, ceiling);
    assert!(
        per_interest <= BASELINE_CEILING,
        "baseline: {allocs} allocations for {requested} Interests = {per_interest:.3} per Interest"
    );

    // (b) One router, warmed: the tag is in its filter and its PIT and
    // content-store maps are past their growth.
    let provider = KeyPair::derive(b"/prov", 0);
    let tag = issue(&provider, 7);
    let other = issue(&provider, 8);
    let locator = &ext::key_locator_value(&"/prov/KEY/1".parse().expect("name"));

    // An edge router: Protocol 2. The first reply carries F = 0, so the
    // edge inserts the tag; from then on its lookups hit.
    let mut edge = Bench::new(RouterRole::Edge, &provider);
    edge.interest(tagged(&chunk_name(WARM + COUNTED), 1, &tag), CLIENT);
    edge.data(reply(locator, &chunk_name(WARM + COUNTED), &tag, 0.0));
    assert_eq!(edge.router.counters().bf_insertions, 1);
    let legs = round_trips(&mut edge, CLIENT, &tag, None, locator, 1e-4);
    show(
        "b",
        "edge router, Interest and Data legs",
        format!("{legs:?}"),
        "= (0, 0)",
    );
    assert_eq!(legs, (0, 0), "edge router, {COUNTED} round trips");
    assert_eq!(edge.router.counters().bf_insertions, 1, "filter hits only");

    // A core router: Protocol 4's forwarding half.
    let mut core = Bench::new(RouterRole::Core, &provider);
    let legs = round_trips(&mut core, UP, &tag, None, locator, 1e-4);
    show(
        "b",
        "core router, Interest and Data legs",
        format!("{legs:?}"),
        "= (0, 0)",
    );
    assert_eq!(legs, (0, 0), "core router, {COUNTED} round trips");

    // The same router as a content router (Protocol 3) meeting a genuine
    // tag nothing has sized, keyed or checked yet: the pre-check, the
    // filter miss, the signature check against the provider's certified
    // key and the filter insert allocate nothing — the check streams the
    // tag body into its digest.
    let newcomer = issue(&provider, 99);
    let cached = chunk_name(WARM + COUNTED - 1);
    let verified = core.router.counters().sig_verifications;
    let (_, allocs) = counted(|| core.interest(tagged(&cached, 1 << 20, &newcomer), UP));
    assert_eq!(core.sends.len(), 1, "served from the content store");
    assert_eq!(core.router.counters().sig_verifications, verified + 1);
    assert_eq!(core.router.counters().bf_insertions, 1);
    show("b", "verifying a tag new to a warmed router", allocs, "= 0");
    assert_eq!(allocs, 0, "verifying a tag new to a warmed router");

    // Aggregation and fan-out: a second requester joins each entry (its
    // record is the entry's first to live on the heap) and is validated
    // when the Data arrives; it gets a re-annotated copy of its own,
    // which shares the content and costs nothing.
    let mut agg = Bench::new(RouterRole::Core, &provider);
    let joined = Some((CLIENT2, &other));
    let (interest_leg, data_leg) = round_trips(&mut agg, CLIENT, &tag, joined, locator, 0.0);
    show(
        "b",
        "aggregation, second requesters",
        interest_leg,
        format!("≤ {COUNTED}"),
    );
    show("b", "fan-out Data legs", data_leg, "= 0");
    assert!(
        interest_leg <= COUNTED as u64,
        "aggregation: {interest_leg} allocations for {COUNTED} second requesters"
    );
    assert_eq!(data_leg, 0, "fan-out, {COUNTED} two-requester Data legs");

    // (c) The sinks. A fleet tick costs what crafting its Interests, and
    // holding them as the tick does, costs — there is no per-tick list of
    // them...
    let fleet = || {
        let entry = CatalogEntry {
            prefix: "/prov".parse().expect("name"),
            objects: 50,
            chunks: 50,
        };
        storm_fleet(Catalog::new(vec![entry], 0.7))
    };
    let (mut fleet, mut twin) = (fleet(), fleet());
    let mut out = Vec::with_capacity(64);
    let hop = Hop::new(9, NodeRole::Consumer, SimTime::ZERO);
    let (_, tick) = counted(|| fleet_tick(&mut fleet, &mut NoopProtocolObserver, hop, &mut out));
    assert_eq!(out.len(), 20, "200 Interests/s over one 100 ms tick");
    let mut held = Vec::with_capacity(20);
    let (_, crafting) = counted(|| (0..20).for_each(|_| held.push(twin.craft())));
    show(
        "c",
        "fleet tick of 20 Interests",
        tick,
        format!("= {crafting}, crafting them"),
    );
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
    let (mut router, mut twin) = (pending(), pending());
    let data = || Data::new(name.clone(), Payload::Synthetic(1024));
    let scenario = Scenario::small();
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
    let packet = Packet::Data(data());
    out.clear();
    let (_, fan_out) = counted(|| {
        let proto = &mut NoopProtocolObserver;
        let station = Station::Router(&mut *router);
        plane.on_packet(station, NodeId(0), UP, packet, proto, &mut ctx, &mut out)
    });
    assert_eq!(out.len(), 2, "one Data per pending requester");
    let d = data();
    let (_, pipeline) = counted(|| {
        let action = process_data(&mut twin, &d, SimTime::ZERO);
        drop((action, d.clone()));
    });
    let exact = format!("= {pipeline}, the pipeline and one copy");
    show("c", "baseline two-requester fan-out", fan_out, exact);
    assert_eq!(
        fan_out, pipeline,
        "a baseline router's two-requester fan-out"
    );

    // (d) Built once. A provider publishes a chunk on its first request;
    // answering the second — validation, tag echo, `F` — is a copy.
    let mut origin = Provider::new(ProviderConfig::paper("/prov".parse().expect("name")));
    let request = |name: Name| {
        let mut request = Interest::new(name, 1);
        ext::set_interest_tag(&mut request, tag.clone());
        request
    };
    let mut serve = |origin: &mut Provider, request: &Interest| {
        let mut ctx = PlaneCtx {
            now: SimTime::from_secs(1),
            rng: &mut rng,
            cost: &cost,
            profiler: None,
            drops: &mut drops,
        };
        let (reply, _) = origin.handle(request, 0, &mut NoopProtocolObserver, &mut ctx);
        assert!(matches!(&reply, Some(Packet::Data(d)) if ext::data_nack(d).is_none()));
        reply
    };
    let fresh = request(origin.content_name(3, 4));
    let (first, allocs) = counted(|| serve(&mut origin, &fresh));
    show(
        "d",
        "provider's first reply",
        allocs,
        format!("= {FIRST_CHUNK_ALLOCS}"),
    );
    assert_eq!(
        allocs, FIRST_CHUNK_ALLOCS,
        "a provider publishing and serving a chunk the first time"
    );
    let (second, allocs) = counted(|| serve(&mut origin, &fresh));
    show("d", "provider's second reply", allocs, "= 0");
    assert_eq!(allocs, 0, "a provider serving a chunk the second time");
    assert_eq!(first, second);

    // The catalog names a fresh object's chunks for two blocks: their
    // components side by side, and the list of their names, each a view
    // into the first. An entry's first name also makes the entry's table
    // of objects.
    let entry = CatalogEntry {
        prefix: "/prov".parse().expect("name"),
        objects: 50,
        chunks: 50,
    };
    let catalog = Catalog::new(vec![entry], 0.7);
    let (_, allocs) = counted(|| drop(catalog.chunk_name((0, 0, 0), None)));
    show("d", "an entry's first chunk name", allocs, "= 3");
    assert_eq!(allocs, 3, "an entry's first name: its table, two blocks");
    let mut names = Vec::with_capacity(50);
    let (_, allocs) =
        counted(|| names.extend((0..50).map(|c| catalog.chunk_name((0, 1, c), None))));
    show("d", "naming a fresh object's 50 chunks", allocs, "= 2");
    assert_eq!(allocs, 2, "a fresh object's names: two blocks");

    // A provider's first reply for a chunk the catalog has named costs
    // exactly the chunk's `Content`: the reply's name is the request's.
    let named = request(names.swap_remove(0));
    let (_, allocs) = counted(|| serve(&mut origin, &named));
    show("d", "provider's first reply, chunk named", allocs, "= 1");
    assert_eq!(allocs, 1, "a provider publishing a chunk the catalog named");

    // First touch apart from steady state (the steady state is (a)'s): a
    // chunk's first touch — named through the catalog, published by its
    // provider — costs its share of its object's two blocks and its
    // `Content`, 52 allocations for a fresh object's 50 chunks (100 while
    // every chunk name was a block of its own).
    let (_, allocs) = counted(|| {
        for c in 0..50 {
            let name = catalog.chunk_name((0, 2, c), None);
            drop(serve(&mut origin, &request(name)));
        }
    });
    let per_touch = format!("{:.2} per chunk", allocs as f64 / 50.0);
    show("d", "a chunk's first touch", per_touch, "= 1.04");
    assert_eq!(allocs, 52, "a fresh object's 50 chunks named and published");

    // A forging attacker spells each chunk name and each provider's
    // forged tag body once, and writes each forgery over the oldest tag
    // instance of its own that nothing holds. Crafting Interests that are
    // all held costs one `Arc` each beyond the instance the warm-up left
    // free, plus the pool's own growth; once they are gone, a forged
    // Interest costs nothing, nor does sizing it for a link, pre-checking
    // it at the edge and looking it up in the edge's filter.
    let entry = |prefix: &str| CatalogEntry {
        prefix: prefix.parse().expect("name"),
        objects: 2,
        chunks: 2,
    };
    let mut storm = storm_fleet(Catalog::new(vec![entry("/prov0"), entry("/prov1")], 0.7));
    let names: std::collections::HashSet<Name> =
        (0..200).map(|_| storm.craft().name().clone()).collect();
    assert_eq!(names.len(), 8, "the warm-up named every chunk");
    let (crafted, allocs) = counted(|| (0..COUNTED).map(|_| storm.craft()).collect::<Vec<_>>());
    let held = COUNTED as u64 - 1 + FORGE_POOL_GROWTH + 1;
    show(
        "d",
        "storm driver, 64 Interests held",
        allocs,
        format!("= {held}"),
    );
    assert_eq!(
        allocs, held,
        "a tag per Interest but the first, the pool's growth and the Vec"
    );
    drop(crafted);
    let (crafted, allocs) = counted(|| (0..COUNTED).map(|_| storm.craft()).collect::<Vec<_>>());
    show(
        "d",
        "storm driver, 64 more once those are gone",
        allocs,
        "= 1",
    );
    assert_eq!(allocs, 1, "every tag a recycled instance: the Vec alone");
    drop(crafted);
    let filter = ValidationCache::new(BloomParams::paper(500), CachePolicy::MonolithicReset);
    let mut most = 0;
    for _ in 0..COUNTED {
        let (admitted, allocs) = counted(|| {
            let i = storm.craft();
            let tag = ext::interest_tag(&i).expect("forged tag");
            let admitted = edge_precheck(&tag.tag, i.name(), SimTime::from_secs(1)).is_ok()
                && !filter.contains(tag.partition_key(), &tag.bloom_key());
            std::hint::black_box(tactic_ndn::wire::wire_size(&Packet::Interest(i)));
            admitted
        });
        assert!(
            admitted,
            "a forgery passes the pre-check and misses the filter"
        );
        assert_eq!(allocs, 0, "a forged Interest once an earlier one is gone");
        most = most.max(allocs);
    }
    show("d", "forged Interest, at most", most, "= 0");

    // A name table of at most `NameTable::SCAN` entries is its entry array
    // alone, found by scanning: a PIT filling with eight pending names
    // allocates as the array grows, twice (a std hash map took three), and
    // only the ninth name builds an index — the array doubles, the index
    // is one block.
    let mut pit: Pit<()> = Pit::new();
    let names: Vec<Name> = (0..=NameTable::<PitEntry<()>>::SCAN)
        .map(chunk_name)
        .collect();
    let expiry = SimTime::from_secs(4);
    let (_, allocs) = counted(|| {
        for (nonce, name) in names[..8].iter().enumerate() {
            pit.on_interest(name, UP, nonce as u64, expiry, ());
        }
    });
    show("d", "PIT's first eight pending names", allocs, "= 2");
    assert_eq!(allocs, 2, "a PIT's first eight pending names");
    let (_, allocs) = counted(|| pit.on_interest(&names[8], UP, 8, expiry, ()));
    show("d", "PIT's ninth pending name", allocs, "= 2");
    assert_eq!(allocs, 2, "the ninth pending name: array and index");

    // The event engine at a steady population: slots are reused, nothing
    // is allocated. Growing past a doubling re-threads the calendar in
    // place for a handful of blocks (it was one per bucket: 1 024 here).
    let mut engine: Engine<u64> = Engine::new();
    let mut rng = Rng::seed_from_u64(3);
    for i in 0..1_000 {
        engine.schedule(SimTime::from_nanos(rng.below(1_000_000)), i);
    }
    let mut hold = |engine: &mut Engine<u64>| {
        let event = engine.pop().expect("steady population");
        engine.schedule_after(SimDuration::from_nanos(1 + rng.below(1_000_000)), event);
    };
    (0..1_000).for_each(|_| hold(&mut engine));
    let (_, allocs) = counted(|| (0..10_000).for_each(|_| hold(&mut engine)));
    show("d", "engine, 10 000 pop/schedule pairs", allocs, "= 0");
    assert_eq!(allocs, 0, "10 000 pop/schedule pairs at a depth of 1 000");
    let (_, allocs) = counted(|| {
        for i in 0..30 {
            engine.schedule_after(SimDuration::from_nanos(i), i);
        }
    });
    assert_eq!(engine.pending(), 1_030, "past the doubling at 1 024");
    show("d", "engine, across a doubling", allocs, "≤ 8");
    assert!(allocs <= 8, "{allocs} allocations across a doubling resize");

    // A saturated validation cache retires its oldest generation in
    // place: the paper's one filter resets and a gen8x2 cache rotates
    // without allocating (a rotation built a fresh filter).
    for policy in [
        CachePolicy::MonolithicReset,
        CachePolicy::Generational {
            generations: 8,
            partitions: 2,
        },
    ] {
        let mut cache = ValidationCache::new(BloomParams::paper(500), policy);
        let (evictions, allocs) = counted(|| {
            (0..4_000u64)
                .filter(|i| cache.insert(b"/prov0", &i.to_le_bytes()) != CacheChurn::None)
                .count()
        });
        let what = format!("{} cache, {evictions} evictions", policy.summary());
        show("d", &what, allocs, "= 0");
        assert!(evictions > 0, "the {what} never saturated");
        assert_eq!(allocs, 0, "the {what}");
    }

    // (h) A client's first window. The catalog already holds every chunk
    // name (other users named them: each object's components in one
    // block, its names views into it), so what its first fill allocates is
    // what is new: the window block its registration occupies and the
    // registration name's component array. The sequence number, the
    // chunk put back behind the registration and the retry queue it goes
    // into are held inline.
    let entry = CatalogEntry {
        prefix: "/prov".parse().expect("name"),
        objects: 10,
        chunks: 10,
    };
    let catalog = Catalog::new(vec![entry], 0.7);
    for (obj, chunk) in (0..10).flat_map(|o| (0..10).map(move |c| (o, c))) {
        catalog.chunk_name((0, obj, chunk), None);
    }
    let policy = RequestPolicy {
        catalog,
        window: 5,
        timeout: SimDuration::from_secs(1),
        per_session_names: false,
        retransmit: None,
    };
    let (kind, rng) = (ConsumerKind::Client, Rng::seed_from_u64(7));
    let mut client = Consumer::new(7, kind, Arc::new(policy), rng);
    let mut out = Vec::with_capacity(8);
    let start = SimTime::from_secs(3);
    let (_, allocs) = counted(|| client.fill(start, &mut out));
    assert_eq!(out.len(), 1, "a registration, the window waiting behind it");
    show("h", "client's first fill", allocs, "= 2");
    assert_eq!(
        allocs, 2,
        "a client's first fill: window block, registration name"
    );

    // Its tag arrives: storing it, the one provider's, costs nothing, nor
    // does filling the window with chunks the catalog has named.
    let registration = out.pop().expect("sent");
    let mut granted = Data::new(registration.name().clone(), Payload::Synthetic(100));
    ext::set_data_new_tag(&mut granted, tag.clone());
    let (_, allocs) = counted(|| client.on_data(&granted, start, &mut out));
    assert_eq!(out.len(), 5, "the window filled");
    show(
        "h",
        "storing the first tag and filling the window",
        allocs,
        "= 0",
    );
    assert_eq!(allocs, 0, "a client storing its first tag");

    // Its deliveries all fall within one second: their latencies are one
    // bucket, held inline, and the refills name known chunks.
    let mut delivered = 0;
    // The refills go into a buffer reserved like the transport's.
    let requests = std::mem::replace(&mut out, Vec::with_capacity(8));
    let deliveries = requests.len() as u64;
    for (k, request) in requests.iter().enumerate() {
        let data = Data::new(request.name().clone(), Payload::Synthetic(1024));
        let now = start + SimDuration::from_millis(10 * (k as u64 + 1));
        let (_, allocs) = counted(|| client.on_data(&data, now, &mut out));
        out.clear();
        delivered += allocs;
    }
    assert_eq!(client.stats().received_chunks, deliveries);
    show("h", "deliveries within one second", delivered, "= 0");
    assert_eq!(delivered, 0, "{deliveries} deliveries within one second");
    let (_, allocs) = counted(|| {
        let mut series = TimeSeries::new();
        for ms in 0..1_000 {
            series.record(
                start + SimDuration::from_millis(ms),
                SimDuration::from_millis(ms),
            );
        }
        series
    });
    show("h", "latency series within one second", allocs, "= 0");
    assert_eq!(allocs, 0, "a latency series within one second");

    // (i) A sharded run, build included, allocates the same every time.
    let sharded = || {
        let run = || run_scenario_sharded(&Scenario::small(), 7, SHARDS).expect("three shards fit");
        counted(run).1
    };
    let (first, second) = (sharded(), sharded());
    let (measured, ceiling) = (
        format!("{first}, then {second}"),
        format!("equal, ≤ {SHARDED_ALLOCS}"),
    );
    show("i", "three-shard small run", measured, ceiling);
    assert_eq!(
        first, second,
        "two equal three-shard runs allocated differently"
    );
    assert!(
        first <= SHARDED_ALLOCS,
        "a three-shard small run: {first} allocations"
    );

    // (j) A shard holds what it owns: four shards of (e)'s fleet hold at
    // once about what one does — under a fault schedule too, where every
    // shard re-routes over the one topology they share.
    let fleet = Scenario {
        topology: TopologyChoice::Custom(FleetSpec::sized(FLEET_NODES).to_table_spec()),
        ..big
    };
    let mut faulty = fleet.clone();
    faulty.faults.schedule = vec![FaultEvent {
        at: SimTime::from_secs_f64(0.5),
        kind: FaultKind::NodeDown { node: NodeId(0) },
    }];
    for (what, scenario) in [("", &fleet), (" with a node down", &faulty)] {
        let sharded_peak = |k| {
            let run = || run_scenario_sharded(scenario, 7, k).expect("the fleet fits four shards");
            high_water(run).1
        };
        let (one, split) = (sharded_peak(1), sharded_peak(SHARD_MEMORY_K));
        let ratio = split as f64 / one as f64;
        let (measured, ceiling) = (
            format!("{split} B ÷ {one} B = {ratio:.3}"),
            format!("≤ {SHARD_MEMORY_CEILING}"),
        );
        show(
            "j",
            &format!("2 000-node fleet heap{what}, four shards ÷ one"),
            measured,
            ceiling,
        );
        assert!(
            ratio <= SHARD_MEMORY_CEILING,
            "2 000-node fleet{what}: heap high-water {split} B at {SHARD_MEMORY_K} shards, \
             {one} B at one: {ratio:.3} times"
        );
    }
}
