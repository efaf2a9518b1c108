//! Behavioural tests of the per-rank scheduler through small, fully
//! controlled simulations.

use dws_core::{run_experiment, ExperimentConfig, Msg, StealAmount, VictimPolicy};
use dws_uts::{TreeSpec, Workload};

fn workload(b0: u32, q: f64) -> Workload {
    Workload {
        name: "test",
        spec: TreeSpec::Binomial { b0, m: 2, q },
        seed: 21,
        gen_rounds: 1,
        base_node_ns: 1_000,
    }
}

#[test]
fn steal_amount_math() {
    assert_eq!(StealAmount::OneChunk.want(0), 0);
    assert_eq!(StealAmount::OneChunk.want(1), 1);
    assert_eq!(StealAmount::OneChunk.want(10), 1);
    assert_eq!(StealAmount::Half.want(0), 0);
    assert_eq!(StealAmount::Half.want(1), 1);
    assert_eq!(StealAmount::Half.want(2), 1);
    assert_eq!(StealAmount::Half.want(3), 2);
    assert_eq!(StealAmount::Half.want(10), 5);
    assert_eq!(StealAmount::Half.want(11), 6);
}

#[test]
fn wire_sizes_scale_with_payload() {
    use dws_uts::{Node, RngState};
    let empty = Msg::StealReply {
        seq: 0,
        xfer: 0,
        nodes: vec![],
    };
    let node = Node {
        state: RngState::from_seed(0),
        height: 0,
    };
    let full = Msg::StealReply {
        seq: 0,
        xfer: 0,
        nodes: vec![node; 20],
    };
    assert!(full.wire_bytes() > empty.wire_bytes());
    assert_eq!(
        full.wire_bytes() - empty.wire_bytes(),
        20 * dws_uts::NODE_WIRE_BYTES
    );
    // The lent receive buffer is not on the wire.
    let request = Msg::StealRequest {
        seq: 0,
        buf: Vec::with_capacity(100),
    };
    assert_eq!(request.wire_bytes(), 16);
}

#[test]
fn two_rank_run_moves_work_and_finishes() {
    let w = workload(100, 0.3);
    let seq = dws_uts::search(&w).nodes;
    let mut cfg = ExperimentConfig::new(w, 2);
    cfg.expect_nodes = Some(seq);
    let r = run_experiment(&cfg);
    assert!(r.completed);
    let s = &r.stats.per_rank;
    assert!(
        s[1].nodes_received > 0,
        "rank 1 must obtain work by stealing"
    );
    assert!(s[0].nodes_given > 0);
    assert_eq!(s[0].nodes_processed + s[1].nodes_processed, seq);
}

#[test]
fn trace_records_rank0_active_from_start() {
    let w = workload(60, 0.3);
    let r = run_experiment(&ExperimentConfig::new(w, 4));
    let trace = r.trace.expect("trace on");
    let first_rank0 = trace
        .transitions()
        .iter()
        .find(|t| t.rank == 0)
        .expect("rank 0 traced");
    assert!(first_rank0.active);
    assert_eq!(first_rank0.at_ns, 0, "rank 0 is active at t=0");
}

#[test]
fn half_stealing_moves_more_per_steal_when_available() {
    // A wide, shallow tree gives the victim many chunks: half-stealing
    // must average more nodes per successful steal than one-chunk.
    let w = workload(2000, 0.40);
    let per_steal = |steal: StealAmount| {
        let mut cfg = ExperimentConfig::new(w.clone(), 4).with_steal(steal);
        cfg.collect_trace = false;
        let r = run_experiment(&cfg);
        let t = r.stats.total();
        t.nodes_received as f64 / t.steals_ok.max(1) as f64
    };
    let one = per_steal(StealAmount::OneChunk);
    let half = per_steal(StealAmount::Half);
    assert!(
        half > one,
        "steal-half should average more nodes per steal ({half:.1} vs {one:.1})"
    );
}

#[test]
fn retry_delay_reduces_steal_attempts() {
    let w = workload(200, 0.45);
    let attempts = |retry_ns: u64| {
        let mut cfg = ExperimentConfig::new(w.clone(), 8).with_victim(VictimPolicy::Uniform);
        cfg.retry_delay_ns = retry_ns;
        cfg.collect_trace = false;
        run_experiment(&cfg).stats.total().steal_attempts
    };
    let eager = attempts(0);
    let patient = attempts(50_000);
    assert!(
        patient < eager,
        "a 50us retry pause must cut attempt volume ({patient} vs {eager})"
    );
}

#[test]
fn victim_service_cost_slows_victims() {
    let w = workload(400, 0.47);
    let makespan = |handle_ns: u64| {
        let mut cfg = ExperimentConfig::new(w.clone(), 8).with_victim(VictimPolicy::Uniform);
        cfg.msg_handle_ns = handle_ns;
        cfg.collect_trace = false;
        run_experiment(&cfg).makespan.ns()
    };
    let cheap = makespan(0);
    let expensive = makespan(20_000);
    assert!(
        expensive > cheap,
        "20us per serviced message must lengthen the run ({expensive} vs {cheap})"
    );
}

#[test]
fn skewed_selection_prefers_near_victims_in_vivo() {
    // Run with grouped mapping so each rank has same-node peers; the
    // distance-skewed policy must direct more requests to node mates
    // than uniform does. Observable through per-rank given/received
    // asymmetry? Simpler: compare average request latency through the
    // search time per attempt.
    let w = workload(2000, 0.48);
    let search_per_attempt = |victim: VictimPolicy| {
        let mut cfg = ExperimentConfig::new(w.clone(), 64).with_victim(victim);
        cfg.mapping = dws_topology::RankMapping::Grouped { ppn: 8 };
        cfg.collect_trace = false;
        let r = run_experiment(&cfg);
        let t = r.stats.total();
        t.search_ns as f64 / t.steal_attempts.max(1) as f64
    };
    let uniform = search_per_attempt(VictimPolicy::Uniform);
    let skewed = search_per_attempt(VictimPolicy::DistanceSkewed { alpha: 4.0 });
    assert!(
        skewed < uniform,
        "strongly skewed selection must lower per-attempt wait ({skewed:.0} vs {uniform:.0} ns)"
    );
}

#[test]
fn nic_contention_taxes_packed_mappings() {
    let w = workload(2000, 0.48);
    let makespan = |nic_ns: u64| {
        let mut cfg = ExperimentConfig::new(w.clone(), 8)
            .with_mapping(dws_topology::RankMapping::Grouped { ppn: 8 })
            .with_victim(VictimPolicy::Uniform);
        cfg.nic_occupancy_ns = nic_ns;
        cfg.collect_trace = false;
        run_experiment(&cfg).makespan.ns()
    };
    let without = makespan(0);
    let with = makespan(20_000);
    assert!(
        with > without,
        "NIC occupancy must cost packed mappings time ({with} vs {without})"
    );
}

#[test]
fn lifelines_complete_and_reduce_failed_steals() {
    let w = workload(2000, 0.49);
    let seq = dws_uts::search(&w).nodes;
    let run = |threshold: Option<u32>| {
        let mut cfg = ExperimentConfig::new(w.clone(), 32).with_victim(VictimPolicy::Uniform);
        cfg.lifeline_threshold = threshold;
        cfg.expect_nodes = Some(seq);
        cfg.collect_trace = false;
        run_experiment(&cfg)
    };
    let plain = run(None);
    let lifelined = run(Some(8));
    assert!(plain.completed && lifelined.completed);
    assert_eq!(plain.total_nodes, lifelined.total_nodes);
    let p = plain.stats.total();
    let l = lifelined.stats.total();
    assert!(
        l.steals_failed < p.steals_failed,
        "dormancy must cut failed-steal volume ({} vs {})",
        l.steals_failed,
        p.steals_failed
    );
}

#[test]
fn lifeline_label_and_counters() {
    let w = workload(300, 0.45);
    let mut cfg = ExperimentConfig::new(w, 8).with_victim(VictimPolicy::Uniform);
    cfg.lifeline_threshold = Some(3);
    assert!(cfg.label().contains("LL"));
    let r = run_experiment(&cfg);
    assert!(r.completed);
    r.stats.check_conservation().expect("pushes conserve work");
}

#[test]
fn lifelines_work_under_skewed_selection_and_mappings() {
    let w = workload(500, 0.47);
    let seq = dws_uts::search(&w).nodes;
    let mut cfg = ExperimentConfig::new(w, 4)
        .with_victim(VictimPolicy::DistanceSkewed { alpha: 1.0 })
        .with_steal(StealAmount::Half)
        .with_mapping(dws_topology::RankMapping::Grouped { ppn: 4 });
    cfg.lifeline_threshold = Some(5);
    cfg.expect_nodes = Some(seq);
    let r = run_experiment(&cfg);
    assert!(r.completed);
}

#[test]
fn config_validation_catches_mistakes() {
    let base = || ExperimentConfig::new(workload(10, 0.3), 4);
    assert!(base().validate().is_ok());
    let mut c = base();
    c.chunk_size = 0;
    assert!(c.validate().is_err());
    let mut c = base();
    c.poll_interval = 0;
    assert!(c.validate().is_err());
    let mut c = base();
    c.n_nodes = 1; // 1 rank under 1/N
    assert!(c.validate().unwrap_err().contains("at least 2 ranks"));
    let mut c = base();
    c.lifeline_threshold = Some(0);
    assert!(c.validate().is_err());
    let mut c = base();
    c.jitter = -1.0;
    assert!(c.validate().is_err());
    let mut c = base();
    c.workload.spec = TreeSpec::Binomial {
        b0: 0,
        m: 2,
        q: 0.5,
    };
    assert!(c.validate().is_err());
}

#[test]
#[should_panic(expected = "invalid experiment configuration")]
fn run_experiment_rejects_invalid_config() {
    let mut cfg = ExperimentConfig::new(workload(10, 0.3), 4);
    cfg.chunk_size = 0;
    run_experiment(&cfg);
}
