//! Seeded inputs.
//!
//! Convergence-driven workloads are chaotic in topology: on `graphgen`
//! seeds 1, 2 and 3 `sssp_asyncp` takes 61, 164 and 68 scheduler waves
//! (1.6, 5.2 and 1.9 s) and the PageRank graph has 81k, 75k and 76k edges,
//! which no regression bound can sit on. So the topology of each graph is drawn once, from
//! [`TOPOLOGY_SEED`], and `--seed` decides everything that leaves the amount
//! of work alone: node labels (and with them the query's source and target
//! ids and every output row), the order edges are loaded in, and the OLTP
//! key and amount streams. Labels move only within their residue class
//! modulo [`LABEL_BLOCK`], because SQLoop partitions by `id mod partitions`
//! and the partition a node lives in is part of the schedule.

use graphgen::{Graph, NodeId};

/// Seed of every graph's topology (the paper's year).
pub const TOPOLOGY_SEED: u64 = 2018;

/// Every partition count the workloads use divides this.
pub const LABEL_BLOCK: u64 = 32;

/// xorshift64* over a splitmix-scrambled seed, so seed 0 works too.
#[derive(Debug, Clone)]
pub struct XorShift(u64);

impl XorShift {
    pub fn new(seed: u64) -> XorShift {
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        XorShift((z ^ (z >> 31)) | 1)
    }

    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// Graph and OLTP sizes. `FULL` gives jobs of 0.15–1.1 s on a 2-core host, so
/// a 15 s run holds 13–90 of them; `SMOKE` is ~10x smaller.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    pub pr_nodes: usize,
    pub pr_degree: usize,
    pub pr_iterations: u64,
    pub ego_circles: usize,
    pub ego_circle_size: usize,
    pub ego_links: usize,
    pub dq_depth: usize,
    pub dq_width: usize,
    pub dq_hops: u64,
    pub oltp_accounts: usize,
    pub oltp_ops_per_client: usize,
}

impl Scale {
    pub const FULL: Scale = Scale {
        pr_nodes: 3_000,
        pr_degree: 8,
        pr_iterations: 20,
        ego_circles: 20,
        ego_circle_size: 40,
        ego_links: 6,
        dq_depth: 130,
        dq_width: 6,
        dq_hops: 100,
        oltp_accounts: 2_000,
        oltp_ops_per_client: 2_500,
    };
    pub const SMOKE: Scale = Scale {
        pr_nodes: 600,
        pr_degree: 8,
        pr_iterations: 20,
        ego_circles: 6,
        ego_circle_size: 20,
        ego_links: 4,
        dq_depth: 14,
        dq_width: 6,
        dq_hops: 10,
        oltp_accounts: 200,
        oltp_ops_per_client: 400,
    };
}

/// A relabelled graph plus the labels the query text needs.
#[derive(Debug, Clone)]
pub struct GraphInput {
    pub graph: Graph,
    /// Label of topology node 0 (SSSP and descendant-query source).
    pub source: NodeId,
    /// Descendant-query target and its hop distance from `source`.
    pub target: Option<(NodeId, u64)>,
}

/// Permutes labels block-wise (`id mod LABEL_BLOCK` is kept) and shuffles
/// the edge order, both from `seed`.
fn relabel(topology: &Graph, target: Option<(NodeId, u64)>, seed: u64) -> GraphInput {
    let mut rng = XorShift::new(seed);
    let max = topology.nodes().last().copied().unwrap_or(0);
    let mut blocks: Vec<u64> = (0..=max / LABEL_BLOCK).collect();
    rng.shuffle(&mut blocks);
    let label = |v: NodeId| blocks[(v / LABEL_BLOCK) as usize] * LABEL_BLOCK + v % LABEL_BLOCK;
    let mut edges: Vec<(NodeId, NodeId)> = topology
        .edges()
        .iter()
        .map(|&(s, d)| (label(s), label(d)))
        .collect();
    rng.shuffle(&mut edges);
    GraphInput {
        graph: Graph::from_edges(edges),
        source: label(0),
        target: target.map(|(t, hops)| (label(t), hops)),
    }
}

pub fn pagerank_graph(scale: &Scale, seed: u64) -> GraphInput {
    let topology = graphgen::web_graph(scale.pr_nodes, scale.pr_degree, TOPOLOGY_SEED);
    relabel(&topology, None, seed)
}

pub fn sssp_graph(scale: &Scale, seed: u64) -> GraphInput {
    let topology = graphgen::ego_network(
        scale.ego_circles,
        scale.ego_circle_size,
        scale.ego_links,
        TOPOLOGY_SEED,
    );
    relabel(&topology, None, seed)
}

pub fn dq_graph(scale: &Scale, seed: u64) -> GraphInput {
    let topology = graphgen::two_domain_web(scale.dq_depth, scale.dq_width, TOPOLOGY_SEED);
    let target = topology.node_at_distance(0, scale.dq_hops);
    relabel(&topology, target, seed)
}

/// One OLTP operation; `id` is an `accounts` key.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Op {
    Select { id: i64 },
    Update { id: i64, amount: f64 },
    Insert { seq: i64, acct: i64, amount: f64 },
}

/// The `accounts` fill and one closed-loop op stream per client.
#[derive(Debug, Clone, PartialEq)]
pub struct OltpInput {
    /// `(id, owner, balance)`.
    pub accounts: Vec<(i64, i64, f64)>,
    pub clients: Vec<Vec<Op>>,
}

pub const OLTP_CLIENTS: usize = 2;

/// Amounts and balances are non-zero multiples of 0.25: every sum the
/// oracle compares is exact in an `f64`, and every `UPDATE` changes its row
/// (the engine counts changed rows, so adding 0 would report 0 affected).
fn quarter_amount(rng: &mut XorShift, span: u64) -> f64 {
    (1 + rng.below(span)) as f64 * 0.25
}

pub fn oltp_input(scale: &Scale, seed: u64) -> OltpInput {
    let mut rng = XorShift::new(seed);
    let n = scale.oltp_accounts as u64;
    let accounts = (0..n as i64)
        .map(|id| (id, rng.below(100) as i64, quarter_amount(&mut rng, 40_000)))
        .collect();
    let clients = (0..OLTP_CLIENTS as i64)
        .map(|client| {
            // exactly 50 % selects, 30 % updates, 20 % inserts, in seeded
            // order: every seed does the same work and stores the same rows
            let mut kinds: Vec<u64> = (0..scale.oltp_ops_per_client as u64)
                .map(|i| i % 10)
                .collect();
            rng.shuffle(&mut kinds);
            kinds
                .into_iter()
                .zip(0..)
                .map(|(kind, i)| {
                    let id = rng.below(n) as i64;
                    match kind {
                        0..=4 => Op::Select { id },
                        5..=7 => Op::Update {
                            id,
                            amount: quarter_amount(&mut rng, 200)
                                * [1.0, -1.0][rng.below(2) as usize],
                        },
                        _ => Op::Insert {
                            seq: client * 1_000_000_000 + i,
                            acct: id,
                            amount: quarter_amount(&mut rng, 400),
                        },
                    }
                })
                .collect()
        })
        .collect();
    OltpInput { accounts, clients }
}

impl OltpInput {
    /// `(SUM(balance), COUNT(ledger))` after every op was applied once.
    pub fn expected(&self) -> (f64, i64) {
        let mut sum: f64 = self.accounts.iter().map(|a| a.2).sum();
        let mut inserts = 0;
        for op in self.clients.iter().flatten() {
            match op {
                Op::Update { amount, .. } => sum += amount,
                Op::Insert { .. } => inserts += 1,
                Op::Select { .. } => {}
            }
        }
        (sum, inserts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_bytes_other_seed_other_labels() {
        for make in [pagerank_graph, sssp_graph, dq_graph] {
            let a = make(&Scale::SMOKE, 7);
            let b = make(&Scale::SMOKE, 7);
            let c = make(&Scale::SMOKE, 8);
            assert_eq!(a.graph.to_csv(), b.graph.to_csv());
            assert_eq!((a.source, a.target), (b.source, b.target));
            assert_ne!(a.graph.to_csv(), c.graph.to_csv());
        }
        assert_eq!(oltp_input(&Scale::SMOKE, 7), oltp_input(&Scale::SMOKE, 7));
        assert_ne!(oltp_input(&Scale::SMOKE, 7), oltp_input(&Scale::SMOKE, 8));
    }

    #[test]
    fn relabelling_keeps_topology_and_partition() {
        let topology = graphgen::ego_network(6, 20, 4, TOPOLOGY_SEED);
        let input = relabel(&topology, Some((57, 3)), 99);
        assert_eq!(input.graph.edge_count(), topology.edge_count());
        assert_eq!(input.graph.node_count(), topology.node_count());
        assert_eq!(input.source % LABEL_BLOCK, 0);
        assert_eq!(input.target.unwrap().0 % LABEL_BLOCK, 57 % LABEL_BLOCK);
        // same multiset of residues on both edge endpoints
        let residues = |g: &Graph| {
            let mut r: Vec<_> = g
                .edges()
                .iter()
                .map(|&(s, d)| (s % LABEL_BLOCK, d % LABEL_BLOCK))
                .collect();
            r.sort_unstable();
            r
        };
        assert_eq!(residues(&input.graph), residues(&topology));
        // hop distances survive the relabelling
        let (t, hops) = topology.node_at_distance(0, 3).unwrap();
        let moved = relabel(&topology, Some((t, hops)), 5);
        let (target, _) = moved.target.unwrap();
        assert_eq!(moved.graph.bfs_hops(moved.source)[&target], hops);
    }

    #[test]
    fn oltp_mix_and_oracle() {
        let input = oltp_input(&Scale::FULL, 3);
        assert_eq!(input.clients.len(), OLTP_CLIENTS);
        let ops: Vec<&Op> = input.clients.iter().flatten().collect();
        let share =
            |f: fn(&Op) -> bool| ops.iter().filter(|o| f(o)).count() as f64 / ops.len() as f64;
        assert_eq!(share(|o| matches!(o, Op::Select { .. })), 0.5);
        assert_eq!(share(|o| matches!(o, Op::Update { .. })), 0.3);
        assert_eq!(share(|o| matches!(o, Op::Insert { .. })), 0.2);
        let (sum, inserts) = input.expected();
        assert_eq!(sum, (sum * 4.0).round() / 4.0);
        assert!(inserts > 0);
    }
}
