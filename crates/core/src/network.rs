//! The NIC-contended network model.
//!
//! Each compute node has **one** network interface, shared by every
//! rank placed on it. When several MPI processes per node generate
//! steal traffic, their messages serialize through that NIC — the
//! paper's motivating observation that "allocating several MPI
//! processes by compute node results in a worse performance than using
//! a single process per node" (§I) hinges on exactly this contention,
//! which a pure point-to-point latency function cannot express.
//!
//! The model implements [`NetworkModel`], which splits a delivery into
//! an **egress** half (transmit queueing plus wire time, charged on the
//! sender's shard in send order) and an **ingress** half (receive-NIC
//! admission, charged on the destination's shard in arrival order).
//! The split is what lets the parallel engine run contended models
//! deterministically: each half only touches state owned by one node,
//! and node-aligned sharding guarantees a single shard ever mutates it.

use dws_simnet::NetworkModel;
use dws_topology::Job;
use std::sync::Arc;

/// Per-direction NIC occupancy bookkeeping for every node of a job.
///
/// The model keeps, per node, the time its NIC becomes free in each
/// direction. A message departing at `t` from a node whose transmit
/// NIC is busy until `t' > t` waits `t' − t`, then occupies the NIC for
/// an `occupancy` window (fixed overhead plus serialization of its
/// bytes); reception mirrors this on the destination node. With one
/// rank per node the queues are almost always empty and the model
/// degrades to the plain topology latency.
pub struct NicContendedNetwork {
    job: Arc<Job>,
    /// Fixed NIC occupancy per message, nanoseconds.
    occupancy_ns: u64,
    /// NIC serialization bandwidth, bytes per nanosecond.
    bytes_per_ns: f64,
    /// Transmit-side free time per *node* (indexed by node id).
    tx_free: Vec<u64>,
    /// Receive-side free time per *node*.
    rx_free: Vec<u64>,
}

impl NicContendedNetwork {
    /// Wrap a placed job with NIC contention.
    pub fn new(job: Arc<Job>, occupancy_ns: u64, bytes_per_ns: f64) -> Self {
        assert!(bytes_per_ns > 0.0, "NIC bandwidth must be positive");
        let n_nodes = job.machine().node_count() as usize;
        Self {
            job,
            occupancy_ns,
            bytes_per_ns,
            tx_free: vec![0u64; n_nodes],
            rx_free: vec![0u64; n_nodes],
        }
    }

    fn occupancy(&self, bytes: usize) -> u64 {
        self.occupancy_ns + (bytes as f64 / self.bytes_per_ns) as u64
    }
}

impl NetworkModel for NicContendedNetwork {
    fn egress_ns(&mut self, from: u32, to: u32, bytes: usize, depart_ns: u64) -> u64 {
        // Server-occupancy queueing: an uncontended message pays only
        // the wire latency (whose software/NIC overhead the topology
        // model already includes), but every message reserves the
        // transmit NIC for an occupancy window, delaying whoever comes
        // next.
        let occ = self.occupancy(bytes);
        let src = self.job.node_of(from).index();
        let start = self.tx_free[src].max(depart_ns);
        self.tx_free[src] = start + occ;
        let wire = self.job.latency_ns(from, to, bytes);
        start + wire - depart_ns
    }

    fn ingress_ns(&mut self, to: u32, bytes: usize, arrival_ns: u64) -> u64 {
        let occ = self.occupancy(bytes);
        let dst = self.job.node_of(to).index();
        let start = self.rx_free[dst].max(arrival_ns);
        self.rx_free[dst] = start + occ;
        start - arrival_ns
    }

    fn replicate(&self) -> Box<dyn NetworkModel> {
        // Replicas partition ranks node-aligned, so each per-node slot
        // is only ever touched by one replica; fresh zeroed state is
        // exactly the serial model's initial state restricted to that
        // shard's nodes.
        Box::new(Self::new(
            Arc::clone(&self.job),
            self.occupancy_ns,
            self.bytes_per_ns,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dws_topology::RankMapping;

    fn grouped_job() -> Arc<Job> {
        Arc::new(Job::compact(2, RankMapping::Grouped { ppn: 8 }))
    }

    /// Full send→handled delay: egress at `now`, ingress at arrival.
    fn full(net: &mut dyn NetworkModel, from: u32, to: u32, bytes: usize, now: u64) -> u64 {
        let e = net.egress_ns(from, to, bytes, now);
        let i = net.ingress_ns(to, bytes, now + e);
        e + i
    }

    #[test]
    fn uncontended_message_pays_only_wire_latency() {
        let job = grouped_job();
        let mut net = NicContendedNetwork::new(Arc::clone(&job), 500, 5.0);
        let wire = job.latency_ns(0, 8, 64);
        assert_eq!(full(&mut net, 0, 8, 64, 0), wire);
    }

    #[test]
    fn simultaneous_sends_from_one_node_serialize() {
        let job = grouped_job();
        let mut net = NicContendedNetwork::new(Arc::clone(&job), 500, 5.0);
        // Ranks 0..8 share node 0; all send to node 1 at t=0.
        let delays: Vec<u64> = (0..8).map(|r| full(&mut net, r, 8, 64, 0)).collect();
        for pair in delays.windows(2) {
            assert!(
                pair[1] > pair[0],
                "messages through one NIC must queue: {delays:?}"
            );
        }
        // The 8th message waits ~7 occupancy windows on tx and rx.
        assert!(delays[7] >= delays[0] + 7 * 500);
    }

    #[test]
    fn sends_from_distinct_nodes_do_not_tx_queue() {
        let job = Arc::new(Job::compact(4, RankMapping::OneToOne));
        let mut net = NicContendedNetwork::new(Arc::clone(&job), 500, 5.0);
        // Ranks 1, 2, 3 each on their own node, all sending to rank 0:
        // they share only the destination NIC.
        let d1 = full(&mut net, 1, 0, 64, 0);
        let d2 = full(&mut net, 2, 0, 64, 0);
        let _ = d1;
        // Second message queues at most one rx occupancy behind the
        // first (plus any wire-time difference).
        let wire1 = job.latency_ns(1, 0, 64);
        let wire2 = job.latency_ns(2, 0, 64);
        let occ = 500 + 12;
        assert!(
            d2 <= wire2.max(wire1) + 2 * occ,
            "unexpected queueing: {d2}"
        );
    }

    #[test]
    fn nic_frees_up_over_time() {
        let job = grouped_job();
        let mut net = NicContendedNetwork::new(Arc::clone(&job), 500, 5.0);
        let first = full(&mut net, 0, 8, 64, 0);
        // Long after the burst, a new message sees an idle NIC again.
        let later = full(&mut net, 0, 8, 64, 1_000_000);
        assert_eq!(first, later);
    }

    #[test]
    fn replica_starts_from_idle_state() {
        let job = grouped_job();
        let mut net = NicContendedNetwork::new(Arc::clone(&job), 500, 5.0);
        let first = full(&mut net, 0, 8, 64, 0);
        let busy = full(&mut net, 0, 8, 64, 0);
        assert!(busy > first, "second send should queue");
        // A shard replica sees its nodes idle, like a fresh model.
        let mut replica = net.replicate();
        assert_eq!(full(replica.as_mut(), 0, 8, 64, 0), first);
    }
}
