//! Every packet an attacked run delivers, byte for byte: on each plane
//! (TACTIC and the three baselines) under each traffic-fleet class, a
//! digest of the wire encoding of every delivered packet — with the node,
//! face and instant it was delivered at — is pinned. How a fielded
//! attacker is built and how its Interests are spelled may be refactored
//! freely; what reaches the wire may not move.

use tactic::scenario::{AttackClass, AttackPlan, Scenario};
use tactic_baselines::mechanism::Mechanism;
use tactic_baselines::net::BaselineSpec;
use tactic_crypto::hash::Hasher64;
use tactic_ndn::face::FaceId;
use tactic_ndn::packet::Packet;
use tactic_ndn::wire;
use tactic_net::harness::{self, Plane};
use tactic_net::NetObserver;
use tactic_sim::time::{SimDuration, SimTime};
use tactic_telemetry::NoopProtocolObserver;
use tactic_topology::graph::NodeId;

/// Hashes each delivery: where, when, and the packet's wire bytes.
#[derive(Default)]
struct WireDigest {
    hash: Hasher64,
    delivered: u64,
}

impl NetObserver for WireDigest {
    fn on_deliver(&mut self, node: NodeId, face: FaceId, packet: &Packet, now: SimTime) {
        self.hash.update_u64(node.index() as u64);
        self.hash.update_u64(face.index() as u64);
        self.hash.update_u64(now.as_nanos());
        self.hash.update(&wire::encode(packet));
        self.delivered += 1;
    }
}

fn digest<P: Plane>(plane: &P) -> (u64, u64) {
    let (_, mut observers, _, _) = harness::run(
        plane,
        7,
        1,
        |_| WireDigest::default(),
        |_| NoopProtocolObserver,
    )
    .expect("one shard always fits");
    let observer = observers.remove(0);
    (observer.hash.finish(), observer.delivered)
}

const CLASSES: [AttackClass; 4] = [
    AttackClass::Flood,
    AttackClass::ReplayExpired,
    AttackClass::BfPollution,
    AttackClass::ForgeTags,
];

#[test]
fn every_fleet_class_delivers_the_pinned_bytes_on_every_plane() {
    let mut seen = Vec::new();
    for class in CLASSES {
        let mut scenario = Scenario::small();
        scenario.duration = SimDuration::from_secs(1);
        scenario.attack = AttackPlan {
            class: Some(class),
            intensity: 200,
        };
        let (hash, delivered) = digest(&scenario);
        assert!(delivered > 1_000, "tactic under {class}: {delivered}");
        seen.push(format!("tactic/{class}: {hash:#018x}"));
        for mechanism in Mechanism::ALL {
            let (hash, delivered) = digest(&BaselineSpec::new(&scenario, mechanism));
            assert!(delivered > 1_000, "{mechanism} under {class}: {delivered}");
            seen.push(format!("{mechanism}/{class}: {hash:#018x}"));
        }
    }
    assert_eq!(
        seen,
        [
            "tactic/flood: 0x968bf099ea5a47ad",
            "no-access-control/flood: 0x5fb7372deeafa7ce",
            "client-side-ac/flood: 0x5fb7372deeafa7ce",
            "provider-auth-ac/flood: 0x3c3cb2cacab778b8",
            "tactic/replay-expired: 0x60f41d170ea4d6c5",
            "no-access-control/replay-expired: 0x5fb7372deeafa7ce",
            "client-side-ac/replay-expired: 0x5fb7372deeafa7ce",
            "provider-auth-ac/replay-expired: 0x3c3cb2cacab778b8",
            "tactic/bf-pollution: 0x54b9589c7a187ad9",
            "no-access-control/bf-pollution: 0xa4fe49c0c16fb1d1",
            "client-side-ac/bf-pollution: 0xa4fe49c0c16fb1d1",
            "provider-auth-ac/bf-pollution: 0x42bd70247f6b816d",
            "tactic/forge-tags: 0xb58c31ef16d34488",
            "no-access-control/forge-tags: 0x5fb7372deeafa7ce",
            "client-side-ac/forge-tags: 0x5fb7372deeafa7ce",
            "provider-auth-ac/forge-tags: 0x3c3cb2cacab778b8",
        ],
        "a delivered packet moved"
    );
}
