//! Victim selection strategies — the heart of the paper.
//!
//! Three strategies, matching §II-A and §IV:
//!
//! - [`VictimPolicy::RoundRobin`] — the reference UTS scheme: "a
//!   process with rank i will choose as its first victim its neighbor
//!   (rank i+1 mod N). Subsequent steals will choose the next neighbor
//!   in a round-robin fashion. Notice that a successful steal does not
//!   impact this choice: the next search for work will start at the
//!   neighbor of the last victim."
//! - [`VictimPolicy::Uniform`] — "choosing with a uniform random
//!   distribution over the ranks of all other MPI processes one victim
//!   to steal. The process is repeated as long as needed, without
//!   modification, until work is found."
//! - [`VictimPolicy::DistanceSkewed`] — "while preserving the ability
//!   to steal any process, weight the probability of one process
//!   stealing another by the distance between those two":
//!   `w(i,j) = 1/e(i,j)` (1 when `e = 0`), normalized over `j ≠ i`.
//!   The exponent `α` generalizes the paper's `α = 1` for the
//!   skew-exponent ablation (`w = 1/e^α`).
//!
//! Three interchangeable samplers implement the skewed draw:
//!
//! 1. **Shared offset-alias tables** ([`OffsetAliasSet`]) — when the
//!    job is torus-translation symmetric ([`Job::torus_symmetry`]),
//!    `e(i, j)` depends only on the observer's intra-cube slot, the
//!    cube-coordinate offset, and the target's slot. One Walker table
//!    per observer slot class (at most 12) then serves *every* rank:
//!    exact O(1) draws with O(N) total memory at any scale.
//! 2. **Per-rank alias tables** (what GSL does) — exact, but O(N)
//!    memory *per rank*; used for non-symmetric jobs up to
//!    [`FALLBACK_LIMIT`] ranks.
//! 3. **Rejection sampling** — O(1) memory per rank for large
//!    non-symmetric jobs, and the differential-test oracle the other
//!    two are held against (chi-square in this module's tests and the
//!    `ablation_skew_impl` bench).

use crate::alias::AliasTable;
use dws_simnet::DetRng;
use dws_topology::coord::{torus_delta, CUBE_A, CUBE_B, CUBE_C};
use dws_topology::{Job, Rank};
use std::sync::Arc;

/// Rank count up to which non-symmetric skewed jobs precompute exact
/// per-rank alias tables; above it, rejection sampling bounds memory.
/// This equals the old default `alias_threshold`, so every
/// pre-existing figure configuration keeps its previous sampler and
/// its byte-identical CSV output. Torus-symmetric jobs ignore this —
/// they always use the shared offset tables.
pub const FALLBACK_LIMIT: u32 = 1024;

/// How a thief picks its next victim.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum VictimPolicy {
    /// Deterministic next-neighbour round robin (reference UTS).
    RoundRobin,
    /// Uniform random over all other ranks ("Rand").
    Uniform,
    /// Distance-skewed random ("Tofu"): `w(i,j) = 1/e(i,j)^alpha`.
    DistanceSkewed {
        /// Skew exponent, at least 0; the paper uses 1.0.
        alpha: f64,
    },
    /// Extension (paper §VII, "alternative victim selection
    /// strategies"): weight victims by the *inverse modelled message
    /// latency* instead of the Euclidean coordinate distance —
    /// `w(i,j) = 1/latency(i,j)^alpha`. Unlike the coordinate skew,
    /// this sees the full latency structure (blade/cube/rack classes
    /// and same-node transport), not just geometry.
    LatencySkewed {
        /// Skew exponent.
        alpha: f64,
    },
    /// Extension (related work §VI, hierarchical work stealing): try
    /// uniformly among *same-node* ranks for `local_tries` consecutive
    /// attempts, then fall back to uniform over everyone. Degenerates
    /// to [`VictimPolicy::Uniform`] under 1/N mappings (no node mates).
    Hierarchical {
        /// Consecutive local attempts before widening the search.
        local_tries: u32,
    },
}

impl VictimPolicy {
    /// The paper's name for the strategy (used in figure legends).
    pub fn label(&self) -> &'static str {
        match self {
            VictimPolicy::RoundRobin => "Reference",
            VictimPolicy::Uniform => "Rand",
            VictimPolicy::DistanceSkewed { .. } => "Tofu",
            VictimPolicy::LatencySkewed { .. } => "LatSkew",
            VictimPolicy::Hierarchical { .. } => "Hier",
        }
    }

    /// The label of this policy under the failure-aware health overlay
    /// ([`ExperimentConfig::adaptive`](crate::ExperimentConfig::adaptive)).
    /// Each base keeps a distinct label: the config fingerprint
    /// serializes the victim policy by label alone, so adaptive runs
    /// must never collide with their static base (or with each other).
    pub fn adaptive_label(&self) -> &'static str {
        match self {
            VictimPolicy::RoundRobin => "AdaptRef",
            VictimPolicy::Uniform => "AdaptRand",
            VictimPolicy::DistanceSkewed { .. } => "AdaptTofu",
            VictimPolicy::LatencySkewed { .. } => "AdaptLat",
            VictimPolicy::Hierarchical { .. } => "AdaptHier",
        }
    }

    /// Build the job-wide shared selector state, once per experiment.
    ///
    /// For [`VictimPolicy::DistanceSkewed`] this constructs the shared
    /// [`OffsetAliasSet`] on a torus-symmetric job (O(N) work and
    /// memory, total), else the [`skew_weights_by_sq`] the rejection
    /// samplers read; every other combination needs no shared state.
    /// Hand the result to each rank's [`build`](Self::build) call.
    pub fn prepare(&self, job: &Arc<Job>) -> VictimContext {
        let mut ctx = VictimContext::default();
        if let VictimPolicy::DistanceSkewed { alpha } = *self {
            if job.torus_symmetry().is_some() {
                ctx.shared = Some(Arc::new(OffsetAliasSet::new(job, alpha)));
            } else {
                ctx.weights = Some(skew_weights_by_sq(job, alpha));
            }
        }
        ctx
    }

    /// Build the per-rank selector state. `ctx` comes from one
    /// [`prepare`](Self::prepare) call shared by all ranks of the job.
    ///
    /// The skewed strategy picks its sampler here: the shared offset
    /// tables when the job is symmetric, a per-rank alias table up to
    /// [`FALLBACK_LIMIT`] ranks otherwise, rejection sampling beyond.
    /// All three draw from the same distribution.
    pub fn build(&self, job: &Arc<Job>, me: Rank, ctx: &VictimContext) -> VictimSelector {
        let n = job.n_ranks();
        assert!(n >= 2, "victim selection needs at least two ranks");
        match *self {
            VictimPolicy::RoundRobin => VictimSelector::RoundRobin {
                n,
                cursor: (me + 1) % n,
                me,
            },
            VictimPolicy::Uniform => VictimSelector::Uniform { n, me },
            VictimPolicy::DistanceSkewed { alpha } => {
                if let Some(set) = &ctx.shared {
                    VictimSelector::SkewedShared {
                        cell: set.rank_cell[me as usize],
                        set: Arc::clone(set),
                    }
                } else if n <= FALLBACK_LIMIT {
                    alias_over_others(job, me, skew_weight, alpha)
                } else {
                    let weights = ctx.weights.as_ref().expect("prepared for rejection");
                    VictimSelector::rejection(job, me, Arc::clone(weights))
                }
            }
            // An alias table at any scale (memory documented in DESIGN.md).
            VictimPolicy::LatencySkewed { alpha } => {
                alias_over_others(job, me, latency_weight, alpha)
            }
            VictimPolicy::Hierarchical { local_tries } => {
                let mates: Vec<Rank> = (0..n)
                    .filter(|&j| j != me && job.same_node(me, j))
                    .collect();
                VictimSelector::Hierarchical {
                    mates,
                    n,
                    me,
                    local_tries,
                    tries_left: local_tries,
                }
            }
        }
    }

    /// The normalized probability `p(i, j)` this policy assigns — the
    /// quantity plotted in Figure 8. Uniform over others for the
    /// non-skewed random policy; `None` for the deterministic one.
    pub fn probability(&self, job: &Job, i: Rank, j: Rank) -> Option<f64> {
        if i == j {
            return Some(0.0);
        }
        match *self {
            VictimPolicy::RoundRobin => None,
            VictimPolicy::Uniform => Some(1.0 / (job.n_ranks() - 1) as f64),
            VictimPolicy::DistanceSkewed { alpha } => {
                Some(normalized(job, skew_weight, alpha, i, j))
            }
            VictimPolicy::LatencySkewed { alpha } => {
                Some(normalized(job, latency_weight, alpha, i, j))
            }
            // The hierarchical scheme's draw distribution depends on
            // its retry state, so a static PDF is not defined.
            VictimPolicy::Hierarchical { .. } => None,
        }
    }
}

/// Shared, per-job victim-selection state built once by
/// [`VictimPolicy::prepare`] and handed to every rank's
/// [`VictimPolicy::build`] call.
#[derive(Debug, Clone, Default)]
pub struct VictimContext {
    shared: Option<Arc<OffsetAliasSet>>,
    /// [`skew_weights_by_sq`], for the rejection samplers.
    weights: Option<Arc<[f64]>>,
}

impl VictimContext {
    /// True iff the skewed draws are backed by the shared offset-alias
    /// tables (torus-symmetric job) rather than a per-rank sampler.
    pub fn uses_shared_table(&self) -> bool {
        self.shared.is_some()
    }
}

/// One job-wide set of distance-skew alias tables over coordinate
/// *offsets*, for torus-translation-symmetric jobs.
///
/// Outcomes are `(cube_offset, target_slot)` pairs at *node*
/// granularity: every rank on a node is at the same distance from the
/// observer, so a node outcome carries weight `ppn · w` (or
/// `(ppn − 1) · 1` for the observer's own node, where `e = 0` and each
/// node mate has weight 1) and a uniform intra-node draw finishes the
/// pick. The two-stage probability is exactly the per-rank normalized
/// skew distribution: `(ppn·w/Z)·(1/ppn) = w/Z`.
///
/// Memory: one table per observer slot class over `cubes · |slots|`
/// outcomes — `N · |slots| ≤ 12·N` entries total, shared by all ranks,
/// versus O(N²) aggregate for per-rank tables.
///
/// Each table is stored *decoded*: a slot holds its acceptance
/// probability next to both of its outcomes already split into the
/// per-axis cube offset and the target slot, and every cube's `(x, y,
/// z)` is precomputed. A draw reads one table slot and wrap-adds with a
/// compare-and-subtract per axis — no `/` or `%` — while consuming the
/// RNG exactly as [`AliasTable::sample`] does.
#[derive(Debug)]
pub struct OffsetAliasSet {
    /// The decoded alias tables of the observer intra-cube slot
    /// classes, back to back, `outcomes` slots each.
    tables: Vec<DecodedSlot>,
    /// Outcomes per table: `cubes · nslots`.
    outcomes: usize,
    /// Torus extents in cubes.
    dims: (u32, u32, u32),
    /// `(x, y, z)` of every cube, by dense cube index.
    cube_xyz: Vec<[u16; 3]>,
    /// Number of occupied intra-cube slot classes.
    nslots: usize,
    /// Ranks per node.
    ppn: u32,
    /// Ranks grouped `[cube][slot][k]` (from [`Job::torus_symmetry`]).
    ranks: Vec<Rank>,
    /// Per-rank `(cube_idx, slot_pos, k)` cell.
    rank_cell: Vec<(u32, u32, u32)>,
}

/// One `(cube offset, target slot)` outcome, split per axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Outcome {
    ox: u16,
    oy: u16,
    oz: u16,
    slot: u16,
}

/// One alias-table slot with both of its outcomes decoded: 24 bytes,
/// everything a draw reads from the table.
#[derive(Debug, Clone, Copy)]
struct DecodedSlot {
    /// Acceptance probability of `own`.
    prob: f64,
    /// The slot's own outcome.
    own: Outcome,
    /// The fallback outcome.
    alias: Outcome,
}

/// `a + b` on a ring of `m` positions, for `a, b < m`.
#[inline]
fn wrap_add(a: u16, b: u16, m: u32) -> u32 {
    let v = a as u32 + b as u32;
    if v >= m {
        v - m
    } else {
        v
    }
}

/// The offset-major alias tables of a symmetric job, one per observer
/// slot class, over `(cube_offset, target_slot)` outcome indices;
/// `OffsetAliasSet` stores them decoded.
fn offset_alias_tables(job: &Job, alpha: f64) -> Vec<AliasTable> {
    let sym = job
        .torus_symmetry()
        .expect("OffsetAliasSet requires a torus-symmetric job");
    let (mx, my, mz) = job.machine().dims();
    let cubes = mx as u32 * my as u32 * mz as u32;
    let ns = sym.slots.len();
    // Intra-cube (a, b, c) of each occupied slot, inverting the
    // machine's in-cube id layout (c fastest, then a, then b).
    let intra: Vec<(u16, u16, u16)> = sym
        .slots
        .iter()
        .map(|&s| {
            let c = s % CUBE_C;
            let a = (s / CUBE_C) % CUBE_A;
            let b = s / (CUBE_C * CUBE_A);
            (a, b, c)
        })
        .collect();
    let mut tables = Vec::with_capacity(ns);
    let mut weights = vec![0.0f64; cubes as usize * ns];
    for &(ai, bi, ci) in intra.iter() {
        for off in 0..cubes {
            let ox = (off % mx as u32) as u16;
            let oy = ((off / mx as u32) % my as u32) as u16;
            let oz = (off / (mx as u32 * my as u32)) as u16;
            let dx = torus_delta(0, ox, mx) as u64;
            let dy = torus_delta(0, oy, my) as u64;
            let dz = torus_delta(0, oz, mz) as u64;
            for (sj, &(aj, bj, cj)) in intra.iter().enumerate() {
                let da = ai.abs_diff(aj) as u64;
                let db = bi.abs_diff(bj) as u64;
                let dc = ci.abs_diff(cj) as u64;
                let e_sq = dx * dx + dy * dy + dz * dz + da * da + db * db + dc * dc;
                weights[off as usize * ns + sj] = if e_sq == 0 {
                    // Observer's own node: ppn − 1 mates at w = 1.
                    (sym.ppn - 1) as f64
                } else {
                    sym.ppn as f64 * weight_of_sq(e_sq, alpha)
                };
            }
        }
        tables.push(AliasTable::new(&weights));
    }
    tables
}

impl OffsetAliasSet {
    /// Build the shared tables for a symmetric job.
    ///
    /// # Panics
    /// Panics if the job has no torus symmetry certificate.
    pub fn new(job: &Job, alpha: f64) -> Self {
        let tables = offset_alias_tables(job, alpha);
        let sym = job.torus_symmetry().expect("checked by the tables");
        let (mx, my, mz) = job.machine().dims();
        let (mx, my, mz) = (mx as u32, my as u32, mz as u32);
        let ns = sym.slots.len();
        // Outcome `o` is offset-major: `o = off · ns + slot`, and `off`
        // is x fastest, then y, then z — the dense cube index layout.
        let decode = |o: u32| {
            let off = o / ns as u32;
            Outcome {
                ox: (off % mx) as u16,
                oy: ((off / mx) % my) as u16,
                oz: (off / (mx * my)) as u16,
                slot: (o % ns as u32) as u16,
            }
        };
        let outcomes = tables[0].len();
        let tables = tables
            .iter()
            .flat_map(|t| t.slots().enumerate())
            .map(|(i, (prob, alias))| DecodedSlot {
                prob,
                own: decode(i as u32),
                alias: decode(alias),
            })
            .collect();
        let cube_xyz = (0..mx * my * mz)
            .map(|c| {
                [
                    (c % mx) as u16,
                    ((c / mx) % my) as u16,
                    (c / (mx * my)) as u16,
                ]
            })
            .collect();
        Self {
            tables,
            outcomes,
            dims: (mx, my, mz),
            cube_xyz,
            nslots: ns,
            ppn: sym.ppn,
            ranks: sym.ranks.clone(),
            rank_cell: sym.rank_cell.clone(),
        }
    }

    /// Draw a victim for the observer at `cell = (cube, slot_pos, k)`.
    #[inline]
    fn draw(&self, cell: (u32, u32, u32), rng: &mut DetRng) -> Rank {
        let (my_cube, sp, my_k) = cell;
        let (mx, my, mz) = self.dims;
        // The two draws of `AliasTable::sample`, in its order.
        let slot = rng.next_below(self.outcomes as u64) as usize;
        let entry = &self.tables[sp as usize * self.outcomes + slot];
        let o = if rng.next_f64() < entry.prob {
            entry.own
        } else {
            entry.alias
        };
        // Target cube = observer cube + offset, wrapped per axis.
        let [cx, cy, cz] = self.cube_xyz[my_cube as usize];
        let cube =
            wrap_add(cx, o.ox, mx) + mx * (wrap_add(cy, o.oy, my) + my * wrap_add(cz, o.oz, mz));
        let base = (cube as usize * self.nslots + o.slot as usize) * self.ppn as usize;
        let k = if cube == my_cube && o.slot as u32 == sp {
            // Own node (only reachable when ppn > 1): uniform over the
            // ppn − 1 mates, skipping the observer.
            let d = rng.next_below(self.ppn as u64 - 1) as u32;
            if d >= my_k {
                d + 1
            } else {
                d
            }
        } else {
            rng.next_below(self.ppn as u64) as u32
        };
        self.ranks[base + k as usize]
    }

    /// Exact probability that observer `i` draws victim `j`, implied by
    /// the shared tables (verification; mirrors
    /// [`AliasTable::probability`]).
    pub fn rank_probability(&self, i: Rank, j: Rank) -> f64 {
        if i == j {
            return 0.0;
        }
        let (ci, si, _) = self.rank_cell[i as usize];
        let (cj, sj, _) = self.rank_cell[j as usize];
        let (mx, my, mz) = self.dims;
        let [cix, ciy, ciz] = self.cube_xyz[ci as usize].map(u32::from);
        let [cjx, cjy, cjz] = self.cube_xyz[cj as usize].map(u32::from);
        let (ox, oy, oz) = (
            (cjx + mx - cix) % mx,
            (cjy + my - ciy) % my,
            (cjz + mz - ciz) % mz,
        );
        let off = ox + mx * (oy + my * oz);
        let table = &self.tables[si as usize * self.outcomes..][..self.outcomes];
        let target = off as usize * self.nslots + sj as usize;
        let n = table.len() as f64;
        let mut p = table[target].prob / n;
        for slot in table {
            if slot.alias == table[target].own && slot.prob < 1.0 {
                p += (1.0 - slot.prob) / n;
            }
        }
        if off == 0 && si == sj {
            p / (self.ppn - 1) as f64
        } else {
            p / self.ppn as f64
        }
    }
}

/// A skewed policy's weight `w(job, i, j, alpha)`.
type Weight = fn(&Job, Rank, Rank, f64) -> f64;

/// `w(i, j)` normalized over every `k ≠ i`.
fn normalized(job: &Job, w: Weight, alpha: f64, i: Rank, j: Rank) -> f64 {
    let others = (0..job.n_ranks()).filter(|&k| k != i);
    w(job, i, j, alpha) / others.map(|k| w(job, i, k, alpha)).sum::<f64>()
}

/// A per-rank alias table over every rank but `me`, weighted `w(me, j)`.
fn alias_over_others(job: &Job, me: Rank, w: Weight, alpha: f64) -> VictimSelector {
    let others = (0..job.n_ranks()).filter(|&j| j != me);
    let weights: Vec<f64> = others.map(|j| w(job, me, j, alpha)).collect();
    VictimSelector::SkewedAlias {
        table: AliasTable::new(&weights),
        me,
    }
}

/// Extension weight: inverse modelled one-way latency (for a
/// steal-request-sized message), raised to `alpha`.
#[inline]
pub fn latency_weight(job: &Job, i: Rank, j: Rank, alpha: f64) -> f64 {
    let lat = job.latency_ns(i, j, 16) as f64;
    lat.powf(alpha).recip()
}

/// The paper's weight: `1/e(i,j)^alpha`, with `w = 1` when the ranks
/// share a node (`e = 0`).
#[inline]
pub fn skew_weight(job: &Job, i: Rank, j: Rank, alpha: f64) -> f64 {
    weight_of_sq(job.euclidean_sq(i, j), alpha)
}

/// [`skew_weight`] from the exact squared distance `e_sq`: the one
/// float pipeline every skewed sampler weighs with.
#[inline]
fn weight_of_sq(e_sq: u64, alpha: f64) -> f64 {
    if e_sq == 0 {
        1.0
    } else {
        (e_sq as f64).sqrt().powf(alpha).recip()
    }
}

/// [`skew_weight`] at every squared distance `job`'s machine holds,
/// indexed by it: one `powf` per distance instead of one per draw.
pub fn skew_weights_by_sq(job: &Job, alpha: f64) -> Arc<[f64]> {
    let (x, y, z) = job.machine().dims();
    let sq = |d: u16| u64::from(d).pow(2);
    let max_sq =
        sq(x / 2) + sq(y / 2) + sq(z / 2) + sq(CUBE_A - 1) + sq(CUBE_B - 1) + sq(CUBE_C - 1);
    (0..=max_sq).map(|e_sq| weight_of_sq(e_sq, alpha)).collect()
}

/// A uniform draw over the `n − 1` ranks other than `me`.
#[inline]
fn uniform_other(n: u32, me: Rank, rng: &mut DetRng) -> Rank {
    let draw = rng.next_below(n as u64 - 1) as u32;
    draw + u32::from(draw >= me)
}

/// Per-rank victim-selection state.
pub enum VictimSelector {
    /// Deterministic round robin with a persistent cursor.
    RoundRobin {
        /// Rank count.
        n: u32,
        /// Next victim to try.
        cursor: Rank,
        /// Owning rank (skipped by the cursor).
        me: Rank,
    },
    /// Uniform over the other ranks.
    Uniform {
        /// Rank count.
        n: u32,
        /// Owning rank.
        me: Rank,
    },
    /// Distance-skewed via the job-wide shared offset-alias tables
    /// (torus-symmetric jobs): exact O(1) draws, O(N) total memory.
    SkewedShared {
        /// Shared table set, one per intra-cube slot class.
        set: Arc<OffsetAliasSet>,
        /// Owning rank's `(cube, slot_pos, k)` cell.
        cell: (u32, u32, u32),
    },
    /// Distance-skewed via a precomputed alias table (small N).
    SkewedAlias {
        /// Table over the `n − 1` other ranks, in rank order.
        table: AliasTable,
        /// Owning rank.
        me: Rank,
    },
    /// Distance-skewed via [`rejection`](VictimSelector::rejection) sampling (large N).
    SkewedRejection {
        /// Topology handle for distance queries.
        job: Arc<Job>,
        /// Owning rank.
        me: Rank,
        /// The job's [`skew_weights_by_sq`].
        weights: Arc<[f64]>,
        /// The owning rank's largest weight, the acceptance bound.
        w_max: f64,
    },
    /// Two-level hierarchical selection: node mates first, then global.
    Hierarchical {
        /// Ranks sharing this rank's node.
        mates: Vec<Rank>,
        /// Total rank count.
        n: u32,
        /// Owning rank.
        me: Rank,
        /// Local attempts per burst.
        local_tries: u32,
        /// Local attempts remaining before widening.
        tries_left: u32,
    },
}

impl VictimSelector {
    /// The rejection sampler for rank `me` over the job's
    /// [`skew_weights_by_sq`]: a uniform proposal is accepted with
    /// `w / w_max`, where `w_max` is `me`'s own largest weight (1 with
    /// a node mate, else `d_min^-alpha`), so a draw takes at most
    /// `n − 1` expected proposals whatever `alpha`.
    pub fn rejection(job: &Arc<Job>, me: Rank, weights: Arc<[f64]>) -> Self {
        // From `me + 1` on, which a compact allocation places next door.
        let mut nearest_sq = u64::MAX;
        for j in (me + 1..job.n_ranks()).chain(0..me) {
            nearest_sq = nearest_sq.min(job.euclidean_sq(me, j));
            if nearest_sq <= 1 {
                break; // weight 1, the largest there is
            }
        }
        VictimSelector::SkewedRejection {
            job: Arc::clone(job),
            me,
            w_max: weights[nearest_sq as usize],
            weights,
        }
    }

    /// Pick the next victim to try. Never returns the owning rank.
    pub fn next_victim(&mut self, rng: &mut DetRng) -> Rank {
        match self {
            VictimSelector::RoundRobin { n, cursor, me } => {
                let mut v = *cursor;
                if v == *me {
                    v = (v + 1) % *n;
                }
                *cursor = (v + 1) % *n;
                v
            }
            VictimSelector::Uniform { n, me } => uniform_other(*n, *me, rng),
            VictimSelector::SkewedShared { set, cell } => set.draw(*cell, rng),
            VictimSelector::SkewedAlias { table, me } => {
                let idx = table.sample(rng) as u32;
                idx + u32::from(idx >= *me)
            }
            VictimSelector::SkewedRejection {
                job,
                me,
                weights,
                w_max,
            } => {
                // Proposal: uniform over others, accepted with w / w_max.
                loop {
                    let j = uniform_other(job.n_ranks(), *me, rng);
                    let w = weights[job.euclidean_sq(*me, j) as usize];
                    if rng.next_f64() < w / *w_max {
                        return j;
                    }
                }
            }
            VictimSelector::Hierarchical {
                mates,
                n,
                me,
                local_tries,
                tries_left,
            } => {
                if !mates.is_empty() && *tries_left > 0 {
                    *tries_left -= 1;
                    let idx = rng.next_below(mates.len() as u64) as usize;
                    mates[idx]
                } else {
                    // One global draw, then restart the local burst.
                    *tries_left = *local_tries;
                    uniform_other(*n, *me, rng)
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dws_topology::RankMapping;

    fn job(n: u32, mapping: RankMapping) -> Arc<Job> {
        Arc::new(Job::compact(n, mapping))
    }

    /// TorusFill job on a machine it fills uniformly — the shape the
    /// shared offset-alias sampler activates on.
    fn symmetric_job(n_nodes: u32, mapping: RankMapping) -> Arc<Job> {
        use dws_topology::{AllocationPolicy, LatencyParams, Machine};
        Arc::new(Job::place(
            Machine::torus_for_nodes(n_nodes),
            n_nodes,
            AllocationPolicy::TorusFill,
            mapping,
            LatencyParams::default(),
        ))
    }

    /// The rejection sampler as a standalone differential oracle.
    fn rejection(job: &Arc<Job>, me: Rank, alpha: f64) -> VictimSelector {
        VictimSelector::rejection(job, me, skew_weights_by_sq(job, alpha))
    }

    /// Build a selector the way the runner does: one shared prepare,
    /// then the per-rank build.
    fn build(policy: VictimPolicy, job: &Arc<Job>, me: Rank) -> VictimSelector {
        let ctx = policy.prepare(job);
        policy.build(job, me, &ctx)
    }

    #[test]
    fn round_robin_walks_neighbours_and_skips_self() {
        let job = job(4, RankMapping::OneToOne);
        let mut sel = build(VictimPolicy::RoundRobin, &job, 2);
        let mut rng = DetRng::new(0);
        let picks: Vec<Rank> = (0..6).map(|_| sel.next_victim(&mut rng)).collect();
        assert_eq!(picks, vec![3, 0, 1, 3, 0, 1], "cursor must skip rank 2");
    }

    #[test]
    fn round_robin_cursor_persists_across_searches() {
        // The paper: "a successful steal does not impact this choice" —
        // our cursor simply continues; there is no reset API at all.
        let job = job(8, RankMapping::OneToOne);
        let mut sel = build(VictimPolicy::RoundRobin, &job, 0);
        let mut rng = DetRng::new(0);
        assert_eq!(sel.next_victim(&mut rng), 1);
        assert_eq!(sel.next_victim(&mut rng), 2);
        // ... steal succeeds here, search later resumes at 3 ...
        assert_eq!(sel.next_victim(&mut rng), 3);
    }

    #[test]
    fn uniform_covers_all_other_ranks() {
        let job = job(8, RankMapping::OneToOne);
        let mut sel = build(VictimPolicy::Uniform, &job, 3);
        let mut rng = DetRng::new(7);
        let mut seen = [0u32; 8];
        for _ in 0..8_000 {
            seen[sel.next_victim(&mut rng) as usize] += 1;
        }
        assert_eq!(seen[3], 0, "must never pick self");
        for (r, &c) in seen.iter().enumerate() {
            if r != 3 {
                assert!(
                    (c as i64 - 1_143).abs() < 200,
                    "rank {r} picked {c} times, expected ~1143"
                );
            }
        }
    }

    #[test]
    fn skewed_prefers_nearby_ranks() {
        let job = job(64, RankMapping::OneToOne);
        let mut sel = build(VictimPolicy::DistanceSkewed { alpha: 1.0 }, &job, 0);
        let mut rng = DetRng::new(11);
        let mut counts = vec![0u32; 64];
        let draws = 60_000;
        for _ in 0..draws {
            counts[sel.next_victim(&mut rng) as usize] += 1;
        }
        assert_eq!(counts[0], 0);
        // Empirical frequencies must match the analytic distribution.
        for j in 1..64u32 {
            let p = VictimPolicy::DistanceSkewed { alpha: 1.0 }
                .probability(&job, 0, j)
                .expect("skewed policy has probabilities");
            let expect = p * draws as f64;
            if expect > 200.0 {
                let err = (counts[j as usize] as f64 - expect).abs() / expect;
                assert!(
                    err < 0.15,
                    "rank {j}: {} draws vs expected {expect:.0}",
                    counts[j as usize]
                );
            }
        }
    }

    fn histogram(mut sel: VictimSelector, n: usize, draws: u32, seed: u64) -> Vec<f64> {
        let mut rng = DetRng::new(seed);
        let mut counts = vec![0f64; n];
        for _ in 0..draws {
            counts[sel.next_victim(&mut rng) as usize] += 1.0;
        }
        counts
    }

    #[test]
    fn alias_and_rejection_samplers_agree() {
        // Non-symmetric compact job: build() picks the per-rank alias
        // table; the standalone rejection sampler is the oracle.
        let job = job(48, RankMapping::OneToOne);
        let policy = VictimPolicy::DistanceSkewed { alpha: 1.0 };
        let alias = build(policy, &job, 5);
        assert!(matches!(alias, VictimSelector::SkewedAlias { .. }));
        let a = histogram(alias, 48, 50_000, 3);
        let r = histogram(rejection(&job, 5, 1.0), 48, 50_000, 4);
        for j in 0..48 {
            let diff = (a[j] - r[j]).abs();
            let scale = a[j].max(r[j]).max(50.0);
            assert!(
                diff / scale < 0.25,
                "rank {j}: alias {} vs rejection {}",
                a[j],
                r[j]
            );
        }
    }

    #[test]
    fn rejection_accepts_against_each_ranks_largest_weight() {
        // Scattered 1,100 nodes at alpha = 8: build() picks rejection.
        // Rank 700's nearest rank is at distance √7, so its largest
        // weight is 7^-4, and accepting against 1 would waste
        // 2,401-fold proposals.
        use dws_topology::{AllocationPolicy, LatencyParams, Machine};
        let n = 1100;
        let job = Arc::new(Job::place(
            Machine::k_computer(),
            n,
            AllocationPolicy::Scattered { seed: 0 },
            RankMapping::OneToOne,
            LatencyParams::default(),
        ));
        let policy = VictimPolicy::DistanceSkewed { alpha: 8.0 };
        let me = 700;
        let sel = build(policy, &job, me);
        let VictimSelector::SkewedRejection { w_max, .. } = &sel else {
            panic!("a non-symmetric job above FALLBACK_LIMIT draws by rejection");
        };
        assert_eq!(*w_max, 7f64.sqrt().powf(8.0).recip());
        let draws = 4_000;
        let got = histogram(sel, n as usize, draws, 3);
        for j in 0..n {
            let p = policy.probability(&job, me, j).expect("skewed pdf");
            let expect = p * draws as f64;
            assert!(
                (got[j as usize] - expect).abs() < 0.25 * expect.max(200.0),
                "rank {j}: drew {} times, expected {expect:.1}",
                got[j as usize]
            );
        }
    }

    #[test]
    fn shared_offset_alias_agrees_with_rejection_oracle() {
        // Symmetric TorusFill job: build() activates the shared tables.
        let job = symmetric_job(96, RankMapping::OneToOne);
        let policy = VictimPolicy::DistanceSkewed { alpha: 1.0 };
        let ctx = policy.prepare(&job);
        assert!(ctx.uses_shared_table());
        let shared = policy.build(&job, 7, &ctx);
        assert!(matches!(shared, VictimSelector::SkewedShared { .. }));
        let draws = 80_000u32;
        let s = histogram(shared, 96, draws, 3);
        let r = histogram(rejection(&job, 7, 1.0), 96, draws, 4);
        assert_eq!(s[7], 0.0, "must never pick self");
        // Pearson chi-square of the shared histogram against the
        // rejection sampler's analytic distribution. 94 degrees of
        // freedom; 99.9th percentile is ~143.
        let mut chi2 = 0.0;
        for j in 0..96u32 {
            if j == 7 {
                continue;
            }
            let p = policy.probability(&job, 7, j).expect("skewed pdf");
            let expect = p * draws as f64;
            chi2 += (s[j as usize] - expect).powi(2) / expect;
        }
        assert!(chi2 < 143.0, "chi-square {chi2:.1} rejects agreement");
        // And the two empirical histograms track each other.
        for j in 0..96 {
            let diff = (s[j] - r[j]).abs();
            let scale = s[j].max(r[j]).max(80.0);
            assert!(
                diff / scale < 0.25,
                "rank {j}: shared {} vs rejection {}",
                s[j],
                r[j]
            );
        }
    }

    /// `OffsetAliasSet::draw` as it was before the tables were
    /// decoded: sample the offset-major outcome index from the raw
    /// alias table, split it with `/` and `%`, wrap-add with `%`.
    fn reference_draw(
        tables: &[AliasTable],
        job: &Job,
        cell: (u32, u32, u32),
        rng: &mut DetRng,
    ) -> Rank {
        let sym = job.torus_symmetry().expect("symmetric");
        let nslots = sym.slots.len();
        let ppn = sym.ppn;
        let (mx, my, mz) = job.machine().dims();
        let (mx, my, mz) = (mx as u32, my as u32, mz as u32);
        let (my_cube, sp, my_k) = cell;
        let o = tables[sp as usize].sample(rng);
        let off = (o / nslots) as u32;
        let sj = o % nslots;
        let (cx, cy, cz) = (my_cube % mx, (my_cube / mx) % my, my_cube / (mx * my));
        let (ox, oy, oz) = (off % mx, (off / mx) % my, off / (mx * my));
        let cube = (cx + ox) % mx + mx * ((cy + oy) % my + my * ((cz + oz) % mz));
        let base = (cube as usize * nslots + sj) * ppn as usize;
        let k = if off == 0 && sj == sp as usize {
            let d = rng.next_below(ppn as u64 - 1) as u32;
            if d >= my_k {
                d + 1
            } else {
                d
            }
        } else {
            rng.next_below(ppn as u64) as u32
        };
        sym.ranks[base + k as usize]
    }

    #[test]
    fn decoded_draw_matches_the_reference_arithmetic() {
        // Every observer cell of a 4,096-node 1/N job and of an 8G job,
        // 10k draws each from one seed per cell: the decoded tables
        // must return the identical rank sequence and leave the RNG in
        // the identical state.
        for (nodes, mapping) in [
            (4096, RankMapping::OneToOne),
            (96, RankMapping::Grouped { ppn: 8 }),
        ] {
            let job = symmetric_job(nodes, mapping);
            let set = OffsetAliasSet::new(&job, 1.0);
            let tables = offset_alias_tables(&job, 1.0);
            for me in 0..job.n_ranks() {
                let cell = set.rank_cell[me as usize];
                let mut a = DetRng::new(0xD1FF ^ me as u64);
                let mut b = DetRng::new(0xD1FF ^ me as u64);
                for i in 0..10_000 {
                    let got = set.draw(cell, &mut a);
                    let want = reference_draw(&tables, &job, cell, &mut b);
                    assert_eq!(got, want, "rank {me} draw {i} ({mapping:?})");
                }
                assert_eq!(a.next_u64(), b.next_u64(), "rank {me}: RNG consumption");
            }
        }
    }

    #[test]
    fn shared_offset_alias_probability_is_exact() {
        // The table-implied probability must match the analytic
        // normalized skew distribution for every (i, j) pair.
        for mapping in [RankMapping::OneToOne, RankMapping::Grouped { ppn: 4 }] {
            let job = symmetric_job(24, mapping);
            let n = job.n_ranks();
            let set = OffsetAliasSet::new(&job, 1.0);
            let policy = VictimPolicy::DistanceSkewed { alpha: 1.0 };
            for i in (0..n).step_by(7) {
                let mut sum = 0.0;
                for j in 0..n {
                    let want = policy.probability(&job, i, j).expect("skewed pdf");
                    let got = set.rank_probability(i, j);
                    assert!(
                        (got - want).abs() < 1e-9,
                        "p({i},{j}): shared {got} vs analytic {want}"
                    );
                    sum += got;
                }
                assert!((sum - 1.0).abs() < 1e-9, "observer {i}: sum {sum}");
            }
        }
    }

    #[test]
    fn shared_draws_are_translation_equivariant() {
        // Two observers in the same intra-cube slot class but different
        // cubes, fed the same RNG stream, must draw victims at the SAME
        // coordinate offset, slot, and intra-node index every time —
        // the defining property of the shared table. This is the exact
        // per-draw agreement the offset construction guarantees.
        let job = symmetric_job(96, RankMapping::Grouped { ppn: 2 });
        let sym = job.torus_symmetry().expect("TorusFill is symmetric");
        let policy = VictimPolicy::DistanceSkewed { alpha: 1.0 };
        let ctx = policy.prepare(&job);
        // Find two ranks with identical (slot_pos, k) in distinct cubes.
        let (c0, s0, k0) = sym.rank_cell[0];
        let other = (0..job.n_ranks())
            .find(|&r| {
                let (c, s, k) = sym.rank_cell[r as usize];
                c != c0 && s == s0 && k == k0
            })
            .expect("a translated twin exists");
        let mut sel_a = policy.build(&job, 0, &ctx);
        let mut sel_b = policy.build(&job, other, &ctx);
        let (mx, my, mz) = {
            let (x, y, z) = job.machine().dims();
            (x as u32, y as u32, z as u32)
        };
        let offset = |from: u32, to: u32| {
            let (fx, fy, fz) = (from % mx, (from / mx) % my, from / (mx * my));
            let (tx, ty, tz) = (to % mx, (to / mx) % my, to / (mx * my));
            (
                (tx + mx - fx) % mx,
                (ty + my - fy) % my,
                (tz + mz - fz) % mz,
            )
        };
        let mut rng_a = DetRng::new(42);
        let mut rng_b = DetRng::new(42);
        for draw in 0..5_000 {
            let va = sel_a.next_victim(&mut rng_a);
            let vb = sel_b.next_victim(&mut rng_b);
            let (ca, sa, ka) = sym.rank_cell[va as usize];
            let (cb, sb, kb) = sym.rank_cell[vb as usize];
            let cother = sym.rank_cell[other as usize].0;
            assert_eq!(
                (offset(c0, ca), sa, ka),
                (offset(cother, cb), sb, kb),
                "draw {draw}: {va} from rank 0 vs {vb} from rank {other}"
            );
        }
    }

    #[test]
    fn shared_same_node_draws_respect_mate_weights() {
        // ppn > 1: node mates carry weight 1 each; never draw self.
        let job = symmetric_job(12, RankMapping::Grouped { ppn: 4 });
        let policy = VictimPolicy::DistanceSkewed { alpha: 1.0 };
        let ctx = policy.prepare(&job);
        let me = 5u32;
        let sel = policy.build(&job, me, &ctx);
        let n = job.n_ranks() as usize;
        let h = histogram(sel, n, 60_000, 9);
        assert_eq!(h[me as usize], 0.0, "must never pick self");
        for j in 0..n as u32 {
            if j == me {
                continue;
            }
            let p = policy.probability(&job, me, j).expect("skewed pdf");
            let expect = p * 60_000.0;
            if expect > 300.0 {
                let err = (h[j as usize] - expect).abs() / expect;
                assert!(err < 0.15, "rank {j}: {} vs {expect:.0}", h[j as usize]);
            }
        }
    }

    #[test]
    fn same_node_ranks_get_max_weight() {
        let job = job(4, RankMapping::Grouped { ppn: 4 });
        // All 16 ranks; ranks 0..4 share node 0 with rank 0.
        let w_mate = skew_weight(&job, 0, 1, 1.0);
        let w_far = skew_weight(&job, 0, 15, 1.0);
        assert_eq!(w_mate, 1.0);
        assert!(w_far < 1.0);
    }

    #[test]
    fn probabilities_sum_to_one() {
        let job = job(32, RankMapping::OneToOne);
        for policy in [
            VictimPolicy::Uniform,
            VictimPolicy::DistanceSkewed { alpha: 1.0 },
            VictimPolicy::DistanceSkewed { alpha: 2.0 },
        ] {
            let sum: f64 = (0..32)
                .map(|j| policy.probability(&job, 3, j).expect("randomized policy"))
                .sum();
            assert!((sum - 1.0).abs() < 1e-9, "{}: sum {sum}", policy.label());
        }
        assert!(VictimPolicy::RoundRobin.probability(&job, 0, 1).is_none());
    }

    #[test]
    fn alpha_zero_degenerates_to_uniform() {
        let job = job(16, RankMapping::OneToOne);
        let skew = VictimPolicy::DistanceSkewed { alpha: 0.0 };
        for j in 1..16 {
            let p = skew.probability(&job, 0, j).expect("probabilities exist");
            assert!((p - 1.0 / 15.0).abs() < 1e-12);
        }
    }

    #[test]
    fn labels_match_paper() {
        assert_eq!(VictimPolicy::RoundRobin.label(), "Reference");
        assert_eq!(VictimPolicy::Uniform.label(), "Rand");
        assert_eq!(VictimPolicy::DistanceSkewed { alpha: 1.0 }.label(), "Tofu");
        assert_eq!(
            VictimPolicy::LatencySkewed { alpha: 1.0 }.label(),
            "LatSkew"
        );
        assert_eq!(
            VictimPolicy::Hierarchical { local_tries: 3 }.label(),
            "Hier"
        );
    }

    #[test]
    fn adaptive_labels_are_distinct_from_bases() {
        let bases = [
            VictimPolicy::RoundRobin,
            VictimPolicy::Uniform,
            VictimPolicy::DistanceSkewed { alpha: 1.0 },
            VictimPolicy::LatencySkewed { alpha: 1.0 },
            VictimPolicy::Hierarchical { local_tries: 3 },
        ];
        let mut labels = std::collections::HashSet::new();
        for base in bases {
            assert!(
                labels.insert(base.adaptive_label()),
                "fingerprints distinguish adaptive runs by label alone"
            );
            assert!(labels.insert(base.label()), "labels must be unique");
        }
        assert_eq!(
            VictimPolicy::DistanceSkewed { alpha: 1.0 }.adaptive_label(),
            "AdaptTofu"
        );
    }

    #[test]
    fn latency_skew_prefers_node_mates_strongly() {
        // Grouped mapping: ranks 0..8 share a node. Same-node latency
        // (600ns) vs cross-machine latency (microseconds) gives the
        // latency skew far more contrast than the coordinate skew.
        let job = job(16, RankMapping::Grouped { ppn: 8 });
        let policy = VictimPolicy::LatencySkewed { alpha: 1.0 };
        let p_mate = policy.probability(&job, 0, 1).expect("probabilities");
        // Rank 127 sits on the last allocated node — one cube over,
        // same rack under the compact allocation (~2.1 us vs ~1.0 us).
        let p_far = policy.probability(&job, 0, 127).expect("probabilities");
        assert!(
            p_mate > 1.8 * p_far,
            "node mate {p_mate} should dominate same-rack rank {p_far}"
        );
        let sum: f64 = (0..128)
            .map(|j| policy.probability(&job, 0, j).expect("probabilities"))
            .sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn hierarchical_bursts_locally_then_widens() {
        let job = job(2, RankMapping::Grouped { ppn: 8 });
        // Ranks 0..8 on node 0, ranks 8..16 on node 1.
        let mut sel = build(VictimPolicy::Hierarchical { local_tries: 3 }, &job, 0);
        let mut rng = DetRng::new(5);
        let picks: Vec<Rank> = (0..8).map(|_| sel.next_victim(&mut rng)).collect();
        // First 3 picks are node mates (ranks 1..8).
        for (i, &p) in picks.iter().take(3).enumerate() {
            assert!((1..8).contains(&p), "pick {i} = {p} should be a node mate");
        }
        // The 4th is the global draw; afterwards the local burst restarts.
        for (i, &p) in picks.iter().enumerate().skip(4).take(3) {
            assert!((1..8).contains(&p), "pick {i} = {p} should be a node mate");
        }
        // No pick is ever self.
        assert!(picks.iter().all(|&p| p != 0));
    }

    #[test]
    fn hierarchical_without_mates_is_global() {
        let job = job(8, RankMapping::OneToOne);
        let mut sel = build(VictimPolicy::Hierarchical { local_tries: 4 }, &job, 2);
        let mut rng = DetRng::new(9);
        let mut seen = [false; 8];
        for _ in 0..200 {
            let v = sel.next_victim(&mut rng);
            assert_ne!(v, 2);
            seen[v as usize] = true;
        }
        assert_eq!(
            seen.iter().filter(|&&s| s).count(),
            7,
            "all others reachable"
        );
    }

    #[test]
    fn extension_policies_have_no_pdf_or_a_valid_one() {
        let job = job(16, RankMapping::OneToOne);
        assert!(VictimPolicy::Hierarchical { local_tries: 2 }
            .probability(&job, 0, 1)
            .is_none());
        assert!(VictimPolicy::LatencySkewed { alpha: 2.0 }
            .probability(&job, 0, 1)
            .is_some());
    }
}
