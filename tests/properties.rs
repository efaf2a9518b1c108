//! Property-based tests over the core data structures and invariants:
//! the alias sampler, the chunked steal stack, torus distances, SHA-1
//! streaming, the occupancy metrics, and the termination protocol.
//!
//! Implemented as deterministic randomized loops driven by [`DetRng`]
//! (the workspace is dependency-free, so no proptest): each property is
//! checked across a few hundred seeded cases, and a failure message
//! always names the case seed so it can be replayed.

use dws::core::{AliasTable, ChunkedStack, TerminationState, Token, TokenAction};
use dws::metrics::{ActivityTrace, OccupancyCurve, Transition};
use dws::simnet::DetRng;
use dws::topology::{coord::torus_delta, Machine, NodeId};
use dws::uts::{sha1::Sha1, Node, RngState};
use std::collections::VecDeque;

/// Iterations per property. Each case derives everything from one seed.
const CASES: u64 = 300;

fn case_rng(property: u64, case: u64) -> DetRng {
    DetRng::new(0x9E37_79B9_7F4A_7C15 ^ (property << 32) ^ case)
}

/// The alias table's implied probabilities always normalize and are
/// proportional to the input weights.
#[test]
fn alias_probabilities_match_weights() {
    for case in 0..CASES {
        let mut rng = case_rng(1, case);
        let n = rng.next_range(1, 40) as usize;
        let weights: Vec<f64> = (0..n).map(|_| rng.next_f64() * 100.0).collect();
        let total: f64 = weights.iter().sum();
        if total <= 1e-9 {
            continue;
        }
        let table = AliasTable::new(&weights);
        let mut sum = 0.0;
        for (i, &w) in weights.iter().enumerate() {
            let p = table.probability(i);
            sum += p;
            assert!(
                (p - w / total).abs() < 1e-9,
                "case {case} outcome {i}: {p} vs {}",
                w / total
            );
        }
        assert!((sum - 1.0).abs() < 1e-9, "case {case}: sum {sum}");
    }
}

/// Sampling never yields a zero-weight outcome and stays in range.
#[test]
fn alias_sampling_respects_support() {
    for case in 0..CASES {
        let mut rng = case_rng(2, case);
        let n = rng.next_range(2, 20) as usize;
        // A mix of zero and positive weights exercises the support check.
        let weights: Vec<f64> = (0..n)
            .map(|_| {
                if rng.next_below(3) == 0 {
                    0.0
                } else {
                    rng.next_f64() * 10.0
                }
            })
            .collect();
        if weights.iter().sum::<f64>() <= 1e-9 {
            continue;
        }
        let table = AliasTable::new(&weights);
        for _ in 0..200 {
            let s = table.sample(&mut rng);
            assert!(s < weights.len(), "case {case}: index {s} out of range");
            assert!(
                weights[s] > 0.0,
                "case {case}: sampled zero-weight outcome {s}"
            );
        }
    }
}

/// Reference model of the chunked stack: the chunk list itself, newest
/// chunk at the back, as the stack was stored before it was flattened.
struct ChunkList {
    chunks: VecDeque<Vec<Node>>,
    size: usize,
}

impl ChunkList {
    fn len(&self) -> usize {
        self.chunks.iter().map(Vec::len).sum()
    }

    fn push(&mut self, node: Node) {
        match self.chunks.back_mut() {
            Some(back) if back.len() < self.size => back.push(node),
            _ => self.chunks.push_back(vec![node]),
        }
    }

    fn pop(&mut self) -> Option<Node> {
        let back = self.chunks.back_mut()?;
        let node = back.pop();
        if back.is_empty() {
            self.chunks.pop_back();
        }
        node
    }

    /// Every chunk but the newest (private) one.
    fn stealable(&self) -> usize {
        self.chunks.len().saturating_sub(1)
    }

    fn steal(&mut self, want: usize) -> Vec<Vec<Node>> {
        let take = want.min(self.stealable());
        self.chunks.drain(..take).collect()
    }

    fn receive(&mut self, loot: Vec<Vec<Node>>) {
        for chunk in loot.into_iter().rev() {
            self.chunks.push_front(chunk);
        }
    }
}

/// Differential test of the flat chunked stack against the chunk list:
/// over random push/pop/steal/receive runs, both pop the same nodes,
/// give thieves the same nodes, and agree on length and stealable
/// chunks after every operation.
#[test]
fn chunked_stack_model() {
    for case in 0..CASES {
        let mut rng = case_rng(3, case);
        let chunk_size = rng.next_range(1, 40) as usize;
        let n_ops = rng.next_range(1, 200);
        let mut stack = ChunkedStack::new(chunk_size);
        let mut model = ChunkList {
            chunks: VecDeque::new(),
            size: chunk_size,
        };
        let mut loot: Vec<Vec<Vec<Node>>> = Vec::new();
        let mut tag = 0u32;
        for _ in 0..n_ops {
            let arg = rng.next_below(30) as usize;
            match rng.next_below(4) {
                0 => {
                    for _ in 0..arg {
                        let node = Node {
                            state: RngState::from_seed(tag as i32),
                            height: tag,
                        };
                        tag += 1;
                        stack.push(node);
                        model.push(node);
                    }
                }
                1 => assert_eq!(stack.pop(), model.pop(), "case {case}: pop"),
                2 => {
                    let want = arg % 4 + 1;
                    let stolen = model.steal(want);
                    assert_eq!(
                        stack.steal_chunks(want),
                        stolen.concat(),
                        "case {case}: steal"
                    );
                    loot.push(stolen);
                }
                _ => {
                    if let Some(chunks) = loot.pop() {
                        stack.receive_chunks(chunks.concat());
                        model.receive(chunks);
                    }
                }
            }
            assert_eq!(stack.len(), model.len(), "case {case}: length");
            assert_eq!(
                stack.stealable_chunks(),
                model.stealable(),
                "case {case}: stealable"
            );
        }
        // Drain: every node comes back out, in the same order.
        while let Some(node) = model.pop() {
            assert_eq!(stack.pop(), Some(node), "case {case}: drain");
        }
        assert!(stack.is_empty(), "case {case}: drain left nodes");
    }
}

/// Torus deltas are symmetric, bounded by half the extent, and zero
/// only on equal positions.
#[test]
fn torus_delta_properties() {
    for case in 0..CASES * 4 {
        let mut rng = case_rng(4, case);
        let extent = rng.next_range(1, 500) as u16;
        let p = (rng.next_below(500) as u16) % extent;
        let q = (rng.next_below(500) as u16) % extent;
        let d = torus_delta(p, q, extent);
        assert_eq!(d, torus_delta(q, p, extent), "case {case}: asymmetric");
        assert!(d <= extent / 2, "case {case}: delta over half extent");
        assert_eq!(d == 0, p == q, "case {case}: zero-delta iff equal");
    }
}

/// Machine node-id <-> coordinate mapping is a bijection and its
/// distances form a metric (identity, symmetry, triangle inequality
/// on hops).
#[test]
fn machine_metric_properties() {
    let m = Machine::small();
    for case in 0..CASES * 4 {
        let mut rng = case_rng(5, case);
        let a = NodeId(rng.next_below(576) as u32);
        let b = NodeId(rng.next_below(576) as u32);
        let c = NodeId(rng.next_below(576) as u32);
        assert_eq!(m.node_id(m.coord(a)), a, "case {case}: not a bijection");
        assert_eq!(m.hops(a, a), 0, "case {case}: nonzero self distance");
        assert_eq!(m.hops(a, b), m.hops(b, a), "case {case}: asymmetric hops");
        assert!(
            m.hops(a, b) <= m.hops(a, c) + m.hops(c, b),
            "case {case}: triangle inequality"
        );
        assert_eq!(
            m.euclidean(a, b) == 0.0,
            a == b,
            "case {case}: euclidean zero iff equal"
        );
    }
}

/// SHA-1 streaming: any split of the input produces the digest of the
/// whole.
#[test]
fn sha1_streaming_equals_oneshot() {
    for case in 0..CASES {
        let mut rng = case_rng(6, case);
        let len = rng.next_below(300) as usize;
        let data: Vec<u8> = (0..len).map(|_| rng.next_below(256) as u8).collect();
        let k = if data.is_empty() {
            0
        } else {
            rng.next_below(data.len() as u64) as usize
        };
        let mut h = Sha1::new();
        h.update(&data[..k]);
        h.update(&data[k..]);
        assert_eq!(
            h.finalize(),
            Sha1::digest(&data),
            "case {case}: split at {k} of {len}"
        );
    }
}

/// UTS child states: distinct indices yield distinct states, and the
/// draw is always a valid 31-bit value.
#[test]
fn rng_spawn_properties() {
    for case in 0..CASES * 4 {
        let mut rng = case_rng(7, case);
        let seed = rng.next_u64() as i32;
        let i = rng.next_below(1000) as u32;
        let j = rng.next_below(1000) as u32;
        let root = RngState::from_seed(seed);
        let a = root.spawn(i, 1);
        assert!(a.rand() <= 0x7FFF_FFFF, "case {case}: draw out of range");
        if i != j {
            assert_ne!(a, root.spawn(j, 1), "case {case}: state collision");
        }
    }
}

/// Occupancy curve invariants over random (but well-formed) traces:
/// workers never exceed rank count, SL is monotone, and the busy
/// integral matches per-rank accounting.
#[test]
fn occupancy_over_random_traces() {
    for case in 0..CASES {
        let mut rng = case_rng(8, case);
        let n_ranks = 8u32;
        let n_spans = rng.next_range(1, 50);
        let mut per_rank_busy = vec![0u64; n_ranks as usize];
        let mut cursor = vec![0u64; n_ranks as usize];
        // One rank's spans in order, ranks interleaved at random: the
        // shape of one shard's log.
        let mut log = Vec::new();
        let mut end = 0u64;
        for _ in 0..n_spans {
            let rank = rng.next_below(n_ranks as u64) as u32;
            let gap = rng.next_below(1000);
            let len = rng.next_range(1, 1000);
            let r = rank as usize;
            let start = cursor[r] + gap;
            let stop = start + len;
            for (at_ns, active) in [(start, true), (stop, false)] {
                log.push(Transition {
                    rank,
                    at_ns,
                    active,
                });
            }
            per_rank_busy[r] += len;
            cursor[r] = stop;
            end = end.max(stop);
        }
        let trace = ActivityTrace::from_shard_logs(n_ranks, vec![log]);
        if let Err(e) = trace.check() {
            panic!("case {case}: malformed trace: {e}");
        }
        let curve = OccupancyCurve::from_trace(&trace, end);
        assert!(curve.w_max() <= n_ranks, "case {case}: w_max over ranks");
        let expected: u128 = per_rank_busy.iter().map(|&b| b as u128).sum();
        assert_eq!(
            curve.busy_integral_ns(),
            expected,
            "case {case}: busy integral mismatch"
        );
        let mut prev = 0.0;
        for (_, sl, _) in curve.latency_series(100) {
            if let Some(sl) = sl {
                assert!(sl >= prev, "case {case}: SL not monotone");
                prev = sl;
            }
        }
    }
}

/// Safra termination: under arbitrary sequences of sends/receives, a
/// probe over a quiet ring (all messages received) terminates within
/// two rounds, and never terminates with messages in flight.
#[test]
fn termination_protocol_random_schedules() {
    for case in 0..CASES {
        let mut rng = case_rng(9, case);
        let n = rng.next_range(2, 10) as u32;
        let mut states: Vec<TerminationState> =
            (0..n).map(|i| TerminationState::new(i, n)).collect();
        let mut in_flight: Vec<u32> = Vec::new();
        let probe = |states: &mut Vec<TerminationState>| -> TokenAction {
            let mut token: Token = states[0].launch_probe();
            let mut at = n - 1;
            loop {
                match states[at as usize]
                    .try_handle_token(token, true)
                    .expect("passive")
                {
                    TokenAction::Forward(t) => {
                        token = t;
                        at = states[at as usize].next_in_ring();
                        if at == 0 {
                            return states[0].try_handle_token(token, true).expect("passive");
                        }
                    }
                    other => return other,
                }
            }
        };
        let script_len = rng.next_below(60);
        for _ in 0..script_len {
            let op = rng.next_below(2);
            if op == 0 {
                let from = rng.next_below(n as u64) as u32;
                let to = rng.next_below(n as u64) as u32;
                states[from as usize].on_work_sent();
                in_flight.push(to);
            } else if let Some(dst) = in_flight.pop() {
                states[dst as usize].on_work_received();
            }
        }
        if !in_flight.is_empty() {
            assert_eq!(
                probe(&mut states),
                TokenAction::Restart,
                "case {case}: terminated with messages in flight"
            );
            while let Some(dst) = in_flight.pop() {
                states[dst as usize].on_work_received();
            }
        }
        let first = probe(&mut states);
        if first != TokenAction::Terminate {
            assert_eq!(
                probe(&mut states),
                TokenAction::Terminate,
                "case {case}: quiet ring not detected in two rounds"
            );
        }
    }
}

/// One seed fully determines a faulty run: executing the identical
/// configuration twice — drops, duplicates, latency spikes and a rank
/// crash included — reproduces the event schedule, the totals and
/// every per-rank counter bit for bit.
#[test]
fn faulty_runs_are_deterministic() {
    use dws::core::{run_experiment, ExperimentConfig};
    use dws::simnet::{Crash, FaultPlan};
    use dws::uts::{TreeSpec, Workload};
    for case in 0..3u64 {
        let tree = Workload {
            name: "det",
            spec: TreeSpec::Binomial {
                b0: 400,
                m: 2,
                q: 0.45,
            },
            seed: 23 + case as i32,
            gen_rounds: 1,
            base_node_ns: 1_031,
        };
        let mut cfg = ExperimentConfig::new(tree, 8);
        cfg.collect_trace = false;
        cfg.max_events = Some(20_000_000);
        cfg.seed = 0xFA_0017 + case;
        cfg.fault_plan = FaultPlan {
            drop_prob: 0.04,
            dup_prob: 0.02,
            spike_prob: 0.04,
            crashes: vec![Crash {
                rank: 5,
                at_ns: 150_000,
            }],
            ..FaultPlan::default()
        };
        let a = run_experiment(&cfg);
        let b = run_experiment(&cfg);
        assert!(a.completed, "case {case}: did not terminate");
        assert_eq!(a.total_nodes, b.total_nodes, "case {case}: totals differ");
        assert_eq!(
            a.makespan.ns(),
            b.makespan.ns(),
            "case {case}: makespan differs"
        );
        assert_eq!(
            a.report.events, b.report.events,
            "case {case}: schedule differs"
        );
        assert_eq!(
            a.report.messages, b.report.messages,
            "case {case}: traffic differs"
        );
        assert_eq!(
            a.stats.per_rank, b.stats.per_rank,
            "case {case}: counters differ"
        );
        let (fa, fb) = (
            a.fault.as_ref().expect("report"),
            b.fault.as_ref().expect("report"),
        );
        assert_eq!(fa.stats, fb.stats, "case {case}: fault stats differ");
        assert_eq!(fa.crashed_ranks, fb.crashed_ranks, "case {case}");
        assert_eq!(
            fa.lost_subtree_nodes, fb.lost_subtree_nodes,
            "case {case}: loss accounting differs"
        );
    }
}
