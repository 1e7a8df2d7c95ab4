//! The paper's four evaluation topologies (Table III).
//!
//! | Entity             | Topo 1 | Topo 2 | Topo 3 | Topo 4 |
//! |--------------------|--------|--------|--------|--------|
//! | Core routers       | 80     | 180    | 370    | 560    |
//! | Edge routers       | 20     | 20     | 30     | 40     |
//! | Providers          | 10     | 10     | 10     | 10     |
//! | Legitimate clients | 35     | 71     | 143    | 213    |
//! | Attackers          | 15     | 29     | 57     | 87     |
//!
//! "We randomly selected the number of attackers to be roughly one-third
//! and the legitimate clients to be the two-third of the user base."

use tactic_sim::rng::Rng;

use crate::roles::{build_topology, Topology, TopologySpec};

/// One of the paper's four topologies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum PaperTopology {
    /// 80 core routers, 50 users.
    Topo1,
    /// 180 core routers, 100 users.
    Topo2,
    /// 370 core routers, 200 users.
    Topo3,
    /// 560 core routers, 300 users.
    Topo4,
}

impl PaperTopology {
    /// All four, in order.
    pub const ALL: [PaperTopology; 4] = [
        PaperTopology::Topo1,
        PaperTopology::Topo2,
        PaperTopology::Topo3,
        PaperTopology::Topo4,
    ];

    /// The Table III entity counts.
    pub fn spec(self) -> TopologySpec {
        match self {
            PaperTopology::Topo1 => TopologySpec {
                core_routers: 80,
                edge_routers: 20,
                providers: 10,
                clients: 35,
                attackers: 15,
            },
            PaperTopology::Topo2 => TopologySpec {
                core_routers: 180,
                edge_routers: 20,
                providers: 10,
                clients: 71,
                attackers: 29,
            },
            PaperTopology::Topo3 => TopologySpec {
                core_routers: 370,
                edge_routers: 30,
                providers: 10,
                clients: 143,
                attackers: 57,
            },
            PaperTopology::Topo4 => TopologySpec {
                core_routers: 560,
                edge_routers: 40,
                providers: 10,
                clients: 213,
                attackers: 87,
            },
        }
    }

    /// Builds the topology with a seed (the paper averages five seeds).
    pub fn build(self, seed: u64) -> Topology {
        let mut rng = Rng::seed_from_u64(seed ^ (self.index() as u64) << 32);
        build_topology(&self.spec(), &mut rng)
    }

    /// 1-based index as the paper labels them.
    pub fn index(self) -> usize {
        match self {
            PaperTopology::Topo1 => 1,
            PaperTopology::Topo2 => 2,
            PaperTopology::Topo3 => 3,
            PaperTopology::Topo4 => 4,
        }
    }
}

impl std::fmt::Display for PaperTopology {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Topo. {}", self.index())
    }
}

/// Which network to simulate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopologyChoice {
    /// One of the paper's Table III topologies.
    Paper(PaperTopology),
    /// An arbitrary spec (tests, examples, sweeps).
    Custom(TopologySpec),
}

impl TopologyChoice {
    /// The entity counts.
    pub fn spec(&self) -> TopologySpec {
        match self {
            TopologyChoice::Paper(p) => p.spec(),
            TopologyChoice::Custom(s) => *s,
        }
    }

    /// Builds the network for one run: a paper topology is a function of
    /// the seed alone (so every plane simulates the same graph), a custom
    /// spec is wired from stream 1 of the run's own RNG.
    pub fn build(&self, seed: u64, rng: &Rng) -> Topology {
        match self {
            TopologyChoice::Paper(p) => p.build(seed),
            TopologyChoice::Custom(spec) => build_topology(spec, &mut rng.fork(1)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_iii_counts() {
        let t1 = PaperTopology::Topo1.spec();
        assert_eq!(
            (
                t1.core_routers,
                t1.edge_routers,
                t1.providers,
                t1.clients,
                t1.attackers
            ),
            (80, 20, 10, 35, 15)
        );
        let t4 = PaperTopology::Topo4.spec();
        assert_eq!(
            (
                t4.core_routers,
                t4.edge_routers,
                t4.providers,
                t4.clients,
                t4.attackers
            ),
            (560, 40, 10, 213, 87)
        );
    }

    #[test]
    fn attacker_fraction_is_roughly_one_third() {
        for topo in PaperTopology::ALL {
            let s = topo.spec();
            let frac = s.attackers as f64 / s.users() as f64;
            assert!(
                (0.28..=0.34).contains(&frac),
                "{topo}: attacker fraction {frac}"
            );
        }
    }

    #[test]
    fn builds_are_well_formed() {
        // Keep the two largest out of unit tests for speed; the experiment
        // harness exercises them.
        for topo in [PaperTopology::Topo1, PaperTopology::Topo2] {
            let t = topo.build(42);
            let s = topo.spec();
            assert_eq!(t.core_routers.len(), s.core_routers);
            assert_eq!(t.clients.len(), s.clients);
            assert!(t.graph.is_connected(), "{topo} not connected");
        }
    }

    #[test]
    fn distinct_seeds_give_distinct_wirings() {
        let a = PaperTopology::Topo1.build(1);
        let b = PaperTopology::Topo1.build(2);
        let da: Vec<usize> = a.graph.nodes().map(|n| a.graph.degree(n)).collect();
        let db: Vec<usize> = b.graph.nodes().map(|n| b.graph.degree(n)).collect();
        assert_ne!(da, db);
    }

    #[test]
    fn display_labels() {
        assert_eq!(PaperTopology::Topo3.to_string(), "Topo. 3");
    }
}
