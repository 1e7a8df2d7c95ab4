//! A user that crashes across one of its request deadlines.
//!
//! A crashed node services nothing, so a request whose expiry falls
//! while its user is down is stranded: it keeps its window slot for the
//! rest of the run and is never asked for again. A request whose expiry
//! falls after the user is back up still expires on time. Nothing in the
//! experiments crashes a user (the fault experiments crash routers), so
//! this pins the behaviour directly, from what the user puts on the wire.

use tactic::net::run_scenario;
use tactic::scenario::Scenario;
use tactic_ndn::name::Name;
use tactic_net::{harness, FaultEvent, FaultKind, NoopObserver};
use tactic_sim::time::{SimDuration, SimTime};
use tactic_telemetry::{Hop, NodeRole, ProtocolObserver, RetrievalOutcome};
use tactic_topology::graph::NodeId;

const SEED: u64 = 5;

/// What consumers emitted and retrieved, in order.
#[derive(Debug, Default)]
struct Journal {
    emitted: Vec<(u64, SimTime, Name)>,
    retrieved: Vec<(u64, SimTime, Name, RetrievalOutcome)>,
}

impl ProtocolObserver for Journal {
    fn on_interest_emitted(&mut self, hop: Hop, _nonce: u64, name: &Name) {
        if hop.role == NodeRole::Consumer {
            self.emitted.push((hop.node, hop.now, name.clone()));
        }
    }

    fn on_retrieval(&mut self, hop: Hop, name: &Name, outcome: RetrievalOutcome) {
        self.retrieved
            .push((hop.node, hop.now, name.clone(), outcome));
    }
}

fn journal(s: &Scenario) -> Journal {
    let (_, _, mut journals, _) =
        harness::run(s, SEED, 1, |_| NoopObserver, |_| Journal::default())
            .expect("one shard always fits");
    journals.remove(0)
}

impl Journal {
    /// The requests `user` had in flight just after `t`: sent in the
    /// second before it and neither answered nor asked for again since.
    fn in_flight(&self, user: u64, t: SimTime) -> Vec<(SimTime, Name)> {
        let second = SimDuration::from_secs(1);
        let mine = |&&(node, at, _): &&(u64, SimTime, Name)| node == user && at <= t;
        self.emitted
            .iter()
            .filter(mine)
            .filter(|(_, at, name)| {
                *at + second > t
                    && !self
                        .retrieved
                        .iter()
                        .any(|(node, r, n, _)| *node == user && n == name && r > at && *r <= t)
                    && !self
                        .emitted
                        .iter()
                        .filter(mine)
                        .any(|(_, e, n)| n == name && e > at)
            })
            .map(|(_, at, name)| (*at, name.clone()))
            .collect()
    }

    fn emitted_at(&self, user: u64, t: SimTime) -> Vec<&Name> {
        let mine = self
            .emitted
            .iter()
            .filter(|(node, at, _)| *node == user && *at == t);
        mine.map(|(_, _, name)| name).collect()
    }
}

#[test]
fn a_crashed_user_strands_what_falls_due_while_down_and_expires_the_rest() {
    let mut s = Scenario::small();
    s.duration = SimDuration::from_secs(6);
    let timeout = s.request_timeout;
    let calm = journal(&s);

    // The client that retrieved the most.
    let mut by_user = std::collections::BTreeMap::<u64, usize>::new();
    for (node, _, _, outcome) in &calm.retrieved {
        if *outcome == RetrievalOutcome::Data {
            *by_user.entry(*node).or_default() += 1;
        }
    }
    let (&user, _) = by_user
        .iter()
        .max_by_key(|(_, &n)| n)
        .expect("clients retrieve");

    // Crash it just after one of its sends, 3 s in, at a moment when its
    // window holds requests sent at different instants: the earliest-sent
    // falls due while it is down, the latest-sent after it is back up.
    let (down, stranded, survivor) = calm
        .emitted
        .iter()
        .filter(|(node, at, _)| *node == user && *at >= SimTime::from_secs(3))
        .find_map(|(_, at, _)| {
            let down = *at + SimDuration::from_nanos(1);
            let mut flights = calm.in_flight(user, down);
            flights.sort_by_key(|(sent, _)| *sent);
            let (first, last) = (flights.first()?.clone(), flights.last()?.clone());
            (first.0 < last.0).then_some((down, first, last))
        })
        .expect("a window with requests sent at different instants");
    let (stranded_due, survivor_due) = (stranded.0 + timeout, survivor.0 + timeout);
    let up = stranded_due + (survivor_due - stranded_due) / 2;
    assert!(down < stranded_due && stranded_due < up && up < survivor_due);

    let node = NodeId(user as u32);
    s.faults.schedule = vec![
        FaultEvent {
            at: down,
            kind: FaultKind::NodeDown { node },
        },
        FaultEvent {
            at: up,
            kind: FaultKind::NodeUp { node },
        },
    ];
    let crashed = journal(&s);

    // Up to the crash the two runs are one run.
    let before = |j: &Journal| -> Vec<(u64, SimTime, Name)> {
        j.emitted
            .iter()
            .filter(|(_, at, _)| *at < down)
            .cloned()
            .collect()
    };
    assert_eq!(before(&calm), before(&crashed));

    // The stranded request never expires: nothing goes out at its
    // deadline, and it holds its slot, so it is never asked for again.
    assert!(crashed.emitted_at(user, stranded_due).is_empty());
    let again = |&(node, at, ref name): &(u64, SimTime, Name)| {
        node == user && at > stranded.0 && *name == stranded.1
    };
    assert!(!crashed.emitted.iter().any(again));
    assert!(!crashed
        .retrieved
        .iter()
        .any(|(node, at, name, _)| *node == user && *at > stranded.0 && *name == stranded.1));

    // The survivor expires at its deadline, after the user is back: an
    // expired chunk is requeued, so the refill asks for it again then.
    assert!(
        crashed
            .emitted_at(user, survivor_due)
            .contains(&&survivor.1),
        "{} sent at {:?} was not asked for again at {:?}",
        survivor.1,
        survivor.0,
        survivor_due
    );
    // And the user keeps working after it.
    assert!(crashed
        .emitted
        .iter()
        .any(|(node, at, _)| *node == user && *at > survivor_due));

    // The run as a whole still completes.
    let report = run_scenario(&s, SEED);
    assert!(report.delivery.client_received > 0);
}
