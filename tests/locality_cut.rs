//! Soundness oracle for the locality cut: whatever class the runner
//! cuts a job along and however it stripes the units over shards, no
//! message between two shards is cheaper than the lookahead it hands
//! the engine — checked by brute force over rank pairs, with nothing
//! taken from the cut but the shard map and the bound under test.

use dws::core::shard_plan;
use dws::topology::{AllocationPolicy, Job, LatencyParams, Machine, RankMapping};

const ALLOCATIONS: [AllocationPolicy; 4] = [
    AllocationPolicy::CompactRectangle,
    AllocationPolicy::LinearStrip,
    AllocationPolicy::Scattered { seed: 0x5CA7 },
    AllocationPolicy::TorusFill,
];

fn place(
    n_nodes: u32,
    alloc: AllocationPolicy,
    mapping: RankMapping,
    latency: &LatencyParams,
) -> Job {
    let machine = if alloc == AllocationPolicy::TorusFill {
        Machine::torus_for_nodes(n_nodes)
    } else {
        Machine::k_computer()
    };
    Job::place(machine, n_nodes, alloc, mapping, latency.clone())
}

/// The checks, for one placed job at threads 1..=4. Returns the class
/// name so callers can see which classes a sweep reached.
fn check(job: &Job, tag: &str) -> &'static str {
    let plans: Vec<_> = (1..=4).map(|threads| shard_plan(job, threads)).collect();
    let (first, _) = &plans[0];
    assert_eq!(first.shards, 1, "{tag}: one thread runs one shard");
    for (threads, (cut, shard_of)) in (1u32..).zip(&plans) {
        let tag = format!("{tag} threads={threads}");
        assert_eq!(
            (cut.class, cut.units, cut.lookahead_ns),
            (first.class, first.units, first.lookahead_ns),
            "{tag}: class, units and lookahead are the placement's alone"
        );
        assert_eq!(shard_of.len(), job.n_ranks() as usize, "{tag}");
        let used = shard_of.iter().max().expect("a job has ranks") + 1;
        assert_eq!(used, cut.shards, "{tag}: reported shard count");
        assert!(cut.shards <= cut.units.min(threads * 8), "{tag}");
    }
    // One pass over the rank pairs serves every thread count: the
    // latency is the placement's, only the shard map changes.
    for i in 0..job.n_ranks() {
        for j in 0..i {
            let cheapest = job.latency_ns(i, j, 0).min(job.latency_ns(j, i, 0));
            for (cut, shard_of) in &plans {
                let split = shard_of[i as usize] != shard_of[j as usize];
                assert!(
                    !(split && job.same_node(i, j)),
                    "{tag}: ranks {i} and {j} share a node but not a shard"
                );
                assert!(
                    !split || cheapest >= cut.lookahead_ns,
                    "{tag}: ranks {i} and {j} sit on different shards of a {} cut, \
                     {cheapest} ns apart, under a {} ns lookahead",
                    cut.class.name(),
                    cut.lookahead_ns
                );
            }
        }
    }
    first.class.name()
}

fn sweep(latency: &LatencyParams, name: &str) -> Vec<&'static str> {
    let mut classes = Vec::new();
    for alloc in ALLOCATIONS {
        for (mapping, sizes) in [
            (RankMapping::OneToOne, &[16u32, 96, 512][..]),
            (RankMapping::RoundRobin { ppn: 8 }, &[16, 64][..]),
            (RankMapping::Grouped { ppn: 8 }, &[16, 64][..]),
        ] {
            for &n_nodes in sizes {
                let job = place(n_nodes, alloc, mapping, latency);
                let tag = format!("{name} {alloc:?} {} {n_nodes} nodes", mapping.label());
                classes.push(check(&job, &tag));
            }
        }
    }
    classes
}

#[test]
fn no_cross_shard_message_undercuts_the_lookahead_on_the_default_ladder() {
    let latency = LatencyParams::default();
    let mut classes = sweep(&latency, "default");
    // The large end: 1,024 nodes under every allocation.
    for alloc in ALLOCATIONS {
        let job = place(1024, alloc, RankMapping::OneToOne, &latency);
        classes.push(check(&job, &format!("default {alloc:?} 1/N 1024 nodes")));
    }
    for class in ["rack", "cube", "blade", "node"] {
        assert!(
            classes.contains(&class),
            "the sweep never cut along {class}s"
        );
    }
}

#[test]
fn no_cross_shard_message_undercuts_the_lookahead_on_a_flat_network() {
    let latency = LatencyParams::flat(1_000);
    sweep(&latency, "flat");
    // Every class buys the same window: λ plus the software overhead.
    let job = place(
        512,
        AllocationPolicy::TorusFill,
        RankMapping::OneToOne,
        &latency,
    );
    assert_eq!(shard_plan(&job, 2).0.lookahead_ns, 1_400);
}

#[test]
fn no_cross_shard_message_undercuts_the_lookahead_when_adjacent_classes_tie() {
    // Cube and rack links cost the same, and a rack hop is free: the
    // bounds of neighbouring classes coincide and must still hold.
    let latency = LatencyParams {
        same_cube_ns: 1_700,
        same_rack_ns: 1_700,
        inter_rack_ns: 1_700,
        per_hop_ns: 0,
        ..LatencyParams::default()
    };
    sweep(&latency, "tied");
}
