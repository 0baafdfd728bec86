//! The gravity solver — exact direct sum below a measured source-count
//! crossover, Barnes–Hut walk above it — and the two kernel
//! personalities (Octgrav / Fi).

use crate::octree::Octree;
use crate::FLOPS_PER_INTERACTION;
use jc_compute::gravity::{accelerations_direct, self_accelerations, PairScratch};
use jc_compute::par;
use jc_compute::soa::{reduce_lanes, SoaBodies, LANES};

/// A tree-gravity solver: builds an octree over the sources, then walks it
/// for each target with the offset-aware (Salmon–Warren) multipole
/// acceptance criterion: a cell of size `s` whose center of mass sits a
/// distance `delta` from its geometric center is accepted when
/// `distance > s / theta + delta`.
///
/// The two entry points workers call — [`TreeGravity::accelerations_into`]
/// for one set in the field of another (the coupling kicks) and
/// [`TreeGravity::self_accelerations_into`] for a set on itself (SPH
/// self-gravity) — pick their structure by population: with fewer than
/// `DIRECT_BELOW` (4096) sources (and [`TreeGravity::simd`] on) no tree is
/// built and every pair is summed exactly by a [`jc_compute::gravity`]
/// lane kernel, which is both faster and free of the θ-error at those
/// sizes. `theta` then has no influence, so the [`Fi`] and [`Octgrav`]
/// personalities answer bitwise alike. [`TreeGravity::rebuild`],
/// [`TreeGravity::walk_targets`] and `simd = false` always mean the
/// tree.
pub struct TreeGravity {
    /// Opening angle (tree walk only).
    pub theta: f64,
    /// Softening squared.
    pub eps2: f64,
    /// Worker-thread cap for [`TreeGravity::accelerations_into`]: 0 =
    /// auto (one per core, or the `JC_THREADS` override), 1 = strictly
    /// sequential (the steady-state walk then performs zero heap
    /// allocations).
    pub max_threads: usize,
    /// The SoA compute paths every worker runs (`true`, the default).
    /// Below `DIRECT_BELOW` sources [`TreeGravity::accelerations_into`]
    /// sums every pair directly (see the type docs). At or above it, and
    /// always through [`TreeGravity::walk_targets`], this selects the SoA
    /// walk: the traversal runs over a compact cache-packed mirror of the
    /// octree (`WalkTree`, rebuilt per [`TreeGravity::rebuild`]), stages every
    /// accepted node's `[dx, dy, dz, mass]` row for a *block* of targets
    /// at a time in a per-worker interaction list, and evaluates the
    /// monopoles with one portable [`LANES`]-wide body under the fixed
    /// [`reduce_lanes`] reduction order. Results are bitwise stable from
    /// run to run and machine to machine (any worker count, any
    /// instruction set). `false` names the scalar reference walk at
    /// every source count: same acceptance decisions (same interaction
    /// counts), results equal to the SoA walk only to rounding.
    pub simd: bool,
    interactions: u64,
    /// Reused octree arena (rebuilt in place every call).
    tree: Octree,
    /// Per-node squared opening radius, precomputed once per
    /// [`TreeGravity::rebuild`] (see [`precompute_open2`]): the walk's
    /// acceptance test collapses to one load and one compare instead of
    /// re-deriving `(size/θ + δ)²` — a `sqrt` and a `div` per visited
    /// node — for every one of the N targets.
    open2: Vec<f64>,
    /// Compact traversal mirror for the SIMD walk (rebuilt per
    /// [`TreeGravity::rebuild`]; see [`WalkTree`]).
    walk: WalkTree,
    /// Reused per-worker traversal state (stack + interaction list).
    walkers: Vec<WalkScratch>,
    /// Reused `x/y/z/m` mirror of the sources for the direct sums.
    sources: SoaBodies,
    /// Reused blocks, partial columns and row stages of the
    /// pair-symmetric sum.
    pairs: PairScratch,
    /// [`DIRECT_BELOW`], except in the crossover tests.
    direct_below: usize,
}

/// Minimum targets per worker thread before fanning out.
const PAR_GRAIN: usize = 64;

/// Source count below which [`TreeGravity::accelerations_into`] and
/// [`TreeGravity::self_accelerations_into`] sum directly instead of
/// building and walking a tree. Chosen
/// from the `gravity_direct` / `tree_build_walk` /
/// `tree_build_walk_octgrav` rows of `BENCH_PR21.json` (perfsuite's
/// `tree_vs_direct_crossover` report, self-gravity at n = 256 … 8192,
/// `JC_THREADS=1`): mirror + sum beats build + walk 3.2× at n = 256 and
/// 1.9× at 2048 against Fi's θ = 0.5, where it still wins at 4096 (1.2×)
/// and has lost by 8192; against Octgrav's θ = 0.75 — the cheapest tree
/// this one θ-blind rule has to beat — it wins 2.0× at 512, breaks even
/// at 2048 (0.97×) and has lost by 4096 (0.87×). So every measured n
/// below the constant goes to the side that is no slower for any
/// personality. The mixed-precision pair-symmetric self-gravity sum
/// would move its own edge far out (the `gravity_self` rows of
/// `BENCH_PR35.json`: over Octgrav's tree 6.2× at 512, 2.3× at 2048,
/// 1.9× at 4096 and 1.1× at 8192; over Fi's 2.1× at 8192); one constant
/// serves both shapes, and no run here holds more than 512 gas. The rule
/// reads the *source* count only — a sharded coupler splits the targets
/// K ways while every shard receives all sources, so a rule in the
/// target count would make results depend on K; as it is they depend on
/// neither threads, shards nor transport.
const DIRECT_BELOW: usize = 4096;

/// Targets staged per interaction-list batch on the SIMD walk: the
/// traversal fills one shared list for a block of targets (per-target
/// extents recorded on the stack), then the evaluator sweeps the block
/// — the list stays hot in cache and the per-call reduction overhead is
/// amortized across the block.
const TARGET_BLOCK: usize = 8;

/// Per-worker traversal state: the explicit walk stack, plus the SoA
/// interaction list the SIMD walk stages accepted nodes into (empty and
/// untouched on the scalar path).
#[derive(Default)]
struct WalkScratch {
    stack: Vec<u32>,
    /// Accepted-node interaction list, one `[dx, dy, dz, mass]` row per
    /// node (the separation vector is already computed by the acceptance
    /// test) — a single push per acceptance; the evaluator reads row
    /// `p` into lane `p % LANES`. Holds a whole [`TARGET_BLOCK`] of
    /// targets' rows per batch (contiguous per-target extents). Staged
    /// rows always have `|dx|² + ε² > 0`: the traversal filters the
    /// zero-distance zero-softening case before staging.
    list: Vec<[f64; 4]>,
}

/// One node of the [`WalkTree`]: everything the SIMD traversal touches
/// per visited node — acceptance inputs (`com`, `open2`), the staged
/// payload (`mass`) and the live-children extent — packed into 48
/// bytes, versus two-plus cache lines for the full
/// [`crate::octree::Node`] plus a separate `open2` load. At the N where
/// the node arena outgrows L2 this halves the traversal's miss
/// footprint.
#[derive(Clone, Default)]
struct WalkCell {
    /// Center of mass of the cell.
    com: [f64; 3],
    /// Total mass of the cell.
    mass: f64,
    /// Squared opening radius (`-1.0` leaf sentinel accepts always).
    open2: f64,
    /// First live child in [`WalkTree::children`].
    child_start: u32,
    /// Number of live children.
    child_count: u32,
}

/// Compact mirror of the octree for the SIMD walk, rebuilt (in place,
/// allocation-free once warm) by [`TreeGravity::rebuild`]. Cells keep
/// the octree's arena indices; empty and massless subtrees are pruned
/// from the children lists at build time — exactly the nodes the scalar
/// walk skips at run time, so acceptance decisions and interaction
/// counts are identical by construction.
#[derive(Default)]
struct WalkTree {
    cells: Vec<WalkCell>,
    /// Flattened live-children lists, indexed by
    /// [`WalkCell::child_start`] / [`WalkCell::child_count`]. Children
    /// keep the octant order the scalar walk pushes them in, so the
    /// traversal (and the staged row order) matches it node for node.
    children: Vec<u32>,
    /// Does the root itself pass the scalar walk's `count > 0 &&
    /// mass != 0` liveness check? (`false` also for an empty tree.)
    root_live: bool,
}

impl WalkTree {
    /// Rebuild the mirror from `tree` and its precomputed `open2` radii.
    fn build(&mut self, tree: &Octree, open2: &[f64]) {
        let nodes = tree.nodes();
        self.cells.clear();
        self.children.clear();
        self.root_live = nodes.first().is_some_and(|r| r.count > 0 && r.mass != 0.0);
        for (i, n) in nodes.iter().enumerate() {
            let start = self.children.len() as u32;
            // Leaves (open2 sentinel) never descend; internal nodes
            // keep only children the scalar walk would not skip.
            if open2[i] >= 0.0 {
                for &c in &n.children {
                    if c != 0 {
                        let ch = &nodes[c as usize];
                        if ch.count > 0 && ch.mass != 0.0 {
                            self.children.push(c);
                        }
                    }
                }
            }
            self.cells.push(WalkCell {
                com: n.com,
                mass: n.mass,
                open2: open2[i],
                child_start: start,
                child_count: self.children.len() as u32 - start,
            });
        }
    }
}

/// Hint the cache that cell `i` is about to be visited (children are
/// prefetched as they are pushed on the walk stack, hiding the node
/// fetch latency behind the remaining work at this level). A no-op off
/// x86_64; never affects results.
#[inline(always)]
fn prefetch_cell(cells: &[WalkCell], i: u32) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: `_mm_prefetch` is a pure cache hint with no memory or
    // register effects; the pointer is in bounds by construction
    // (`i` indexes `cells`) and SSE is part of the x86_64 baseline.
    unsafe {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        _mm_prefetch(cells.as_ptr().add(i as usize) as *const i8, _MM_HINT_T0);
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = (cells, i);
    }
}

impl TreeGravity {
    /// New solver with opening angle `theta` and softening `eps`.
    pub fn new(theta: f64, eps: f64) -> TreeGravity {
        assert!(theta > 0.0 && theta < 2.0);
        TreeGravity {
            theta,
            eps2: eps * eps,
            max_threads: 0,
            simd: true,
            interactions: 0,
            tree: Octree::new(),
            open2: Vec::new(),
            walk: WalkTree::default(),
            walkers: Vec::new(),
            sources: SoaBodies::new(),
            pairs: PairScratch::new(),
            direct_below: DIRECT_BELOW,
        }
    }

    /// A solver whose direct-sum crossover is `direct_below` sources
    /// instead of [`DIRECT_BELOW`], so tests can put one small cloud on
    /// both sides.
    #[cfg(test)]
    pub(crate) fn with_crossover(theta: f64, eps: f64, direct_below: usize) -> TreeGravity {
        TreeGravity { direct_below, ..TreeGravity::new(theta, eps) }
    }

    /// Accelerations on `targets` written into `out` (cleared and
    /// resized), reusing the solver's buffers — the zero-allocation
    /// steady-state path every worker calls. The structure is picked by
    /// the source count alone: below `DIRECT_BELOW` (4096) sources (with
    /// [`TreeGravity::simd`] on) every pair is summed exactly; otherwise
    /// this is [`TreeGravity::rebuild`] followed by
    /// [`TreeGravity::walk_targets`]. With `simd = false` this is the
    /// scalar reference walk at every source count; the SoA walk equals
    /// it to rounding, the direct sum to rounding plus the walk's
    /// θ-error.
    // jc-lint: no-alloc
    pub fn accelerations_into(
        &mut self,
        targets: &[[f64; 3]],
        s_pos: &[[f64; 3]],
        s_mass: &[f64],
        out: &mut Vec<[f64; 3]>,
    ) {
        if self.simd && s_pos.len() < self.direct_below {
            self.sum_directly(targets, s_pos, s_mass, out);
        } else {
            self.rebuild(s_pos, s_mass);
            self.walk_targets(targets, out);
        }
    }

    /// The below-crossover half of [`TreeGravity::accelerations_into`]:
    /// mirror the sources into the SoA columns, then sum every
    /// target–source pair, chunked over targets like the walk. Each
    /// target's sum runs over all sources in column order whatever chunk
    /// it is in, so results are bitwise independent of the worker count.
    // jc-lint: no-alloc
    fn sum_directly(
        &mut self,
        targets: &[[f64; 3]],
        s_pos: &[[f64; 3]],
        s_mass: &[f64],
        out: &mut Vec<[f64; 3]>,
    ) {
        out.clear();
        out.resize(targets.len(), [0.0; 3]);
        self.sources.fill_from_positions(s_mass, s_pos);
        let threads = par::threads_for(targets.len(), self.max_threads, PAR_GRAIN);
        // one (unused) state per chunk: the kernel needs no scratch
        self.walkers.resize_with(threads, WalkScratch::default);
        let (sources, eps2) = (&self.sources, self.eps2);
        par::chunked(
            threads,
            (targets, out.as_mut_slice()),
            &mut self.walkers,
            (),
            |_, (tc, oc): (&[[f64; 3]], &mut [[f64; 3]]), _| {
                accelerations_direct(tc, sources, eps2, oc)
            },
            |(), ()| (),
        );
        self.interactions = (targets.len() * s_pos.len()) as u64;
    }

    /// Accelerations of the set `(pos, mass)` on itself written into
    /// `out` (cleared and resized) — what a `Gadget` refresh calls for
    /// its self-gravity. The same population rule as
    /// [`TreeGravity::accelerations_into`]: below `DIRECT_BELOW` (4096)
    /// particles (with [`TreeGravity::simd`] on) every unordered pair is
    /// summed once by [`jc_compute::gravity::self_accelerations`] — f32
    /// pair math, f64 sums — bitwise independent of
    /// [`TreeGravity::max_threads`] and within that kernel's error budget
    /// of `accelerations_into(pos, pos, mass, …)` (per-target relative
    /// error ≤ 1e-5, ≤ 1e-6 RMS; net force ≤ 1e-6 of `Σ |m a|`); otherwise
    /// this is [`TreeGravity::rebuild`] followed by
    /// [`TreeGravity::walk_targets`], exactly what `accelerations_into`
    /// runs there.
    // jc-lint: no-alloc
    pub fn self_accelerations_into(
        &mut self,
        pos: &[[f64; 3]],
        mass: &[f64],
        out: &mut Vec<[f64; 3]>,
    ) {
        if self.simd && pos.len() < self.direct_below {
            self.sum_pairs(pos, mass, out);
        } else {
            self.rebuild(pos, mass);
            self.walk_targets(pos, out);
        }
    }

    /// The below-crossover half of
    /// [`TreeGravity::self_accelerations_into`]: mirror the set into the
    /// SoA columns, then sum each unordered pair once.
    // jc-lint: no-alloc
    fn sum_pairs(&mut self, pos: &[[f64; 3]], mass: &[f64], out: &mut Vec<[f64; 3]>) {
        let n = pos.len();
        out.clear();
        out.resize(n, [0.0; 3]);
        self.sources.fill_from_positions(mass, pos);
        self_accelerations(&self.sources, self.eps2, self.max_threads, &mut self.pairs, out);
        self.interactions = (n * n.saturating_sub(1) / 2) as u64;
    }

    /// Rebuild the octree over the sources, reusing the node arena —
    /// the build half of [`TreeGravity::accelerations_into`], exposed so
    /// build and walk cost can be measured (and amortized) separately.
    pub fn rebuild(&mut self, s_pos: &[[f64; 3]], s_mass: &[f64]) {
        self.tree.build_into(s_pos, s_mass);
        precompute_open2(&self.tree, self.theta, &mut self.open2);
        // Always mirrored (one linear pass over the arena, in place):
        // `simd` may be toggled between rebuild and walk.
        self.walk.build(&self.tree, &self.open2);
    }

    /// Walk every target against the tree from the last
    /// [`TreeGravity::rebuild`], writing into `out` (cleared and
    /// resized) — the walk half of [`TreeGravity::accelerations_into`].
    // jc-lint: no-alloc
    pub fn walk_targets(&mut self, targets: &[[f64; 3]], out: &mut Vec<[f64; 3]>) {
        out.clear();
        out.resize(targets.len(), [0.0; 3]);
        if self.tree.is_empty() || targets.is_empty() {
            self.interactions = 0;
            return;
        }
        let n = targets.len();
        let threads = par::threads_for(n, self.max_threads, PAR_GRAIN);
        self.walkers.resize_with(threads, WalkScratch::default);
        let (tree, open2, eps2, simd) = (&self.tree, &self.open2[..], self.eps2, self.simd);
        let walk = &self.walk;
        let total = par::chunked(
            threads,
            (targets, out.as_mut_slice()),
            &mut self.walkers,
            0u64,
            |_, (tc, oc): (&[[f64; 3]], &mut [[f64; 3]]), walker| {
                let mut inter = 0u64;
                if simd {
                    for (tb, ob) in tc.chunks(TARGET_BLOCK).zip(oc.chunks_mut(TARGET_BLOCK)) {
                        inter += walk_block_simd(walk, eps2, tb, ob, walker);
                    }
                } else {
                    for (t, a) in tc.iter().zip(oc.iter_mut()) {
                        inter += walk_into(tree, open2, eps2, t, a, &mut walker.stack);
                    }
                }
                inter
            },
            |a, b| a + b,
        );
        self.interactions = total;
    }

    /// Interactions performed by the last call: accepted particle–node
    /// pairs for a walk, the exact `targets × sources` pair count for a
    /// direct sum, and the `n(n−1)/2` unordered pairs the pair-symmetric
    /// sum of [`TreeGravity::self_accelerations_into`] evaluates. A direct
    /// sum can therefore *report more* than the walk it replaces — at 512
    /// particles the pair-symmetric sum evaluates 131 k pairs where the
    /// θ = 0.6 walk accepted ≈ 117 k nodes — while taking far less time,
    /// because a pair costs ≈ 2 ns against ≈ 10 ns per traversed node.
    /// Modeled flop counters built on this therefore do not fall across
    /// the crossover. That is the work actually done, not a regression to
    /// "fix".
    pub fn last_interactions(&self) -> u64 {
        self.interactions
    }

    /// Modeled flop count of the last call.
    pub fn last_flops(&self) -> f64 {
        self.last_interactions() as f64 * FLOPS_PER_INTERACTION
    }
}

/// Precompute every node's squared opening radius for the offset-aware
/// acceptance criterion (Salmon & Warren): the plain `size/d < theta`
/// test mis-weights cells whose center of mass sits far from the
/// geometric center; requiring `d > size/theta + |com - center|` bounds
/// the worst-case monopole error instead of only the typical one.
///
/// Leaves get a sentinel of `-1.0` so `r² > open2` always accepts them.
/// Computing `(size/θ + δ)²` here — once per build, instead of once per
/// *visited node per target* — removes a `sqrt` and a `div` from the
/// walk's inner loop while producing the exact same comparison values,
/// so acceptance decisions (and the walk results) are bitwise unchanged.
fn precompute_open2(tree: &Octree, theta: f64, open2: &mut Vec<f64>) {
    open2.clear();
    open2.extend(tree.nodes().iter().map(|node| {
        let is_leaf = node.particle != u32::MAX || node.children.iter().all(|&c| c == 0);
        if is_leaf {
            return -1.0;
        }
        let size = 2.0 * node.half_width;
        let delta2 = {
            let ox = [
                node.com[0] - node.center[0],
                node.com[1] - node.center[1],
                node.com[2] - node.center[2],
            ];
            ox[0] * ox[0] + ox[1] * ox[1] + ox[2] * ox[2]
        };
        let open_dist = size / theta + delta2.sqrt();
        open_dist * open_dist
    }));
}

/// One Barnes–Hut walk; `acc` must start zeroed, `stack` is reused across
/// calls (no allocation once warm), `open2` comes from
/// [`precompute_open2`] on the same tree. Returns the interaction count.
fn walk_into(
    tree: &Octree,
    open2: &[f64],
    eps2: f64,
    t: &[f64; 3],
    acc: &mut [f64; 3],
    stack: &mut Vec<u32>,
) -> u64 {
    let nodes = tree.nodes();
    let mut n_inter = 0u64;
    stack.clear();
    stack.push(0);
    while let Some(ni) = stack.pop() {
        let node = &nodes[ni as usize];
        if node.count == 0 || node.mass == 0.0 {
            continue;
        }
        let dx = [node.com[0] - t[0], node.com[1] - t[1], node.com[2] - t[2]];
        let r2 = dx[0] * dx[0] + dx[1] * dx[1] + dx[2] * dx[2];
        if r2 > open2[ni as usize] {
            if r2 == 0.0 && eps2 == 0.0 {
                continue; // the target sits exactly on the node com
            }
            let r2s = r2 + eps2;
            let inv_r3 = 1.0 / (r2s * r2s.sqrt());
            for k in 0..3 {
                acc[k] += node.mass * dx[k] * inv_r3;
            }
            n_inter += 1;
        } else {
            for &c in &node.children {
                if c != 0 {
                    stack.push(c);
                }
            }
        }
    }
    n_inter
}

/// The Barnes–Hut walk for one block of up to [`TARGET_BLOCK`] targets
/// on the SoA path ([`TreeGravity::simd`]): each target's traversal runs
/// over the compact [`WalkTree`] mirror (identical acceptance decisions
/// to [`walk_into`], hence identical interaction counts — dead subtrees
/// were pruned at build time instead of skipped per pop), staging
/// accepted `[dx, dy, dz, mass]` rows into one shared per-worker list
/// with per-target extents; children are cache-prefetched as they are
/// pushed. The monopole kernel then sweeps the still-hot list once per
/// target under the fixed [`reduce_lanes`] reduction. `out` rows are
/// fully overwritten. Returns the block's interaction count.
fn walk_block_simd(
    wt: &WalkTree,
    eps2: f64,
    targets: &[[f64; 3]],
    out: &mut [[f64; 3]],
    w: &mut WalkScratch,
) -> u64 {
    debug_assert!(targets.len() <= TARGET_BLOCK && targets.len() == out.len());
    if !wt.root_live {
        out.fill([0.0; 3]);
        return 0;
    }
    let cells = wt.cells.as_slice();
    let kids = wt.children.as_slice();
    let mut offs = [0u32; TARGET_BLOCK + 1];
    w.list.clear();
    for (k, t) in targets.iter().enumerate() {
        w.stack.clear();
        w.stack.push(0);
        while let Some(ni) = w.stack.pop() {
            let cell = &cells[ni as usize];
            let dx = [cell.com[0] - t[0], cell.com[1] - t[1], cell.com[2] - t[2]];
            let r2 = dx[0] * dx[0] + dx[1] * dx[1] + dx[2] * dx[2];
            if r2 > cell.open2 {
                if r2 == 0.0 && eps2 == 0.0 {
                    continue; // the target sits exactly on the node com
                }
                w.list.push([dx[0], dx[1], dx[2], cell.mass]);
            } else {
                let s = cell.child_start as usize;
                for &c in &kids[s..s + cell.child_count as usize] {
                    prefetch_cell(cells, c);
                    w.stack.push(c);
                }
            }
        }
        offs[k + 1] = w.list.len() as u32;
    }
    for (k, acc) in out.iter_mut().enumerate() {
        let rows = &w.list[offs[k] as usize..offs[k + 1] as usize];
        eval_interaction_list(rows, eps2, acc);
    }
    w.list.len() as u64
}

/// Evaluate the staged monopole interactions for one target (see
/// [`walk_block_simd`]): one portable [`LANES`]-wide body with no
/// dispatch — row `p` folds into lane `p % LANES`, and the lanes reduce
/// in the fixed [`reduce_lanes`] order, so results are
/// machine-independent. The walk is traversal-bound: hand-written AVX2
/// and AVX-512 clones of this loop measured no faster and are gone.
fn eval_interaction_list(list: &[[f64; 4]], eps2: f64, acc: &mut [f64; 3]) {
    let n = list.len();
    let batches = n / LANES;
    let (mut axl, mut ayl, mut azl) = ([0.0f64; LANES], [0.0f64; LANES], [0.0f64; LANES]);
    macro_rules! lane {
        ($l:expr, $row:expr) => {{
            let l = $l;
            let row = $row;
            let [dx, dy, dz, m] = row;
            let r2s = dx * dx + dy * dy + dz * dz + eps2;
            let inv_r3 = 1.0 / (r2s * r2s.sqrt());
            let mir3 = m * inv_r3;
            axl[l] += mir3 * dx;
            ayl[l] += mir3 * dy;
            azl[l] += mir3 * dz;
        }};
    }
    for b in 0..batches {
        let o = b * LANES;
        let batch: &[[f64; 4]; LANES] = list[o..o + LANES].try_into().unwrap();
        for (l, row) in batch.iter().enumerate() {
            lane!(l, *row);
        }
    }
    let o = batches * LANES;
    for (l, row) in list[o..].iter().enumerate() {
        lane!(l, *row);
    }
    *acc = [reduce_lanes(axl), reduce_lanes(ayl), reduce_lanes(azl)];
}

/// The Octgrav personality: GPU tree code with a wide opening angle.
pub struct Octgrav {
    /// The solver.
    pub solver: TreeGravity,
}

impl Octgrav {
    /// Octgrav defaults: θ = 0.75 (GPU codes run wide), ε = 0.01.
    pub fn new() -> Octgrav {
        Octgrav { solver: TreeGravity::new(0.75, 0.01) }
    }
}

impl Default for Octgrav {
    fn default() -> Self {
        Self::new()
    }
}

/// The Fi personality: CPU tree code with a tighter opening angle.
pub struct Fi {
    /// The solver.
    pub solver: TreeGravity,
}

impl Fi {
    /// Fi defaults: θ = 0.5, ε = 0.01.
    pub fn new() -> Fi {
        Fi { solver: TreeGravity::new(0.5, 0.01) }
    }
}

impl Default for Fi {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cloud(n: usize, seed: u64) -> (Vec<[f64; 3]>, Vec<f64>) {
        let mut x = seed.max(1);
        let mut rnd = || {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((x >> 11) as f64 / (1u64 << 53) as f64) - 0.5
        };
        let pos: Vec<[f64; 3]> = (0..n).map(|_| [rnd(), rnd(), rnd()]).collect();
        let mass = vec![1.0 / n as f64; n];
        (pos, mass)
    }

    fn direct(
        targets: &[[f64; 3]],
        s_pos: &[[f64; 3]],
        s_mass: &[f64],
        eps2: f64,
    ) -> Vec<[f64; 3]> {
        targets
            .iter()
            .map(|t| {
                let mut a = [0.0; 3];
                for (p, m) in s_pos.iter().zip(s_mass) {
                    let dx = [p[0] - t[0], p[1] - t[1], p[2] - t[2]];
                    let r2 = dx[0] * dx[0] + dx[1] * dx[1] + dx[2] * dx[2] + eps2;
                    if r2 == 0.0 {
                        continue;
                    }
                    let inv_r3 = 1.0 / (r2 * r2.sqrt());
                    for k in 0..3 {
                        a[k] += m * dx[k] * inv_r3;
                    }
                }
                a
            })
            .collect()
    }

    fn rel_err(a: &[[f64; 3]], b: &[[f64; 3]]) -> f64 {
        let mut max = 0.0f64;
        for (x, y) in a.iter().zip(b) {
            let d = ((x[0] - y[0]).powi(2) + (x[1] - y[1]).powi(2) + (x[2] - y[2]).powi(2)).sqrt();
            let n = (y[0] * y[0] + y[1] * y[1] + y[2] * y[2]).sqrt().max(1e-12);
            max = max.max(d / n);
        }
        max
    }

    /// The mixed-precision pair sum's budget against the f64 direct sum
    /// (`jc_compute::gravity` module docs): per-target relative error
    /// ≤ 1e-5 at most and ≤ 1e-6 RMS.
    fn assert_within_budget(got: &[[f64; 3]], want: &[[f64; 3]], what: &str) {
        let rel = got.iter().zip(want).map(|(x, y)| rel_err(&[*x], &[*y]));
        let (max, sq) = rel.fold((0.0f64, 0.0), |(max, sq), e| (max.max(e), sq + e * e));
        let rms = (sq / got.len().max(1) as f64).sqrt();
        assert!(max <= 1e-5 && rms <= 1e-6, "{what}: relative error max {max:e}, RMS {rms:e}");
    }

    /// The scalar reference walk, which `simd = false` names at every
    /// source count.
    fn scalar_walk(
        solver: &mut TreeGravity,
        targets: &[[f64; 3]],
        s_pos: &[[f64; 3]],
        s_mass: &[f64],
    ) -> Vec<[f64; 3]> {
        solver.simd = false;
        let mut out = Vec::new();
        solver.accelerations_into(targets, s_pos, s_mass, &mut out);
        out
    }

    #[test]
    fn scalar_walk_is_bitwise_independent_of_threads() {
        let (pos, mass) = cloud(800, 17);
        let (tpos, _) = cloud(128, 4);
        let mut solver = TreeGravity::new(0.5, 0.01);
        let a = scalar_walk(&mut solver, &tpos, &pos, &mass);
        let n_a = solver.last_interactions();
        // sequential mode agrees, and reuses the arena across calls
        solver.max_threads = 1;
        let mut c = Vec::new();
        solver.accelerations_into(&tpos, &pos, &mass, &mut c);
        solver.accelerations_into(&tpos, &pos, &mass, &mut c);
        assert_eq!(a, c);
        assert_eq!(n_a, solver.last_interactions());
    }

    #[test]
    fn simd_walk_matches_scalar_within_tolerance() {
        let (pos, mass) = cloud(1500, 23);
        let (tpos, _) = cloud(257, 6); // odd count exercises tail lanes
        let mut scalar = TreeGravity::new(0.5, 0.01);
        scalar.simd = false;
        let mut a = Vec::new();
        scalar.accelerations_into(&tpos, &pos, &mass, &mut a);
        let n_scalar = scalar.last_interactions();
        // the SoA walk by name: 1500 sources would be summed directly
        let mut simd = TreeGravity::new(0.5, 0.01);
        let mut b = Vec::new();
        simd.rebuild(&pos, &mass);
        simd.walk_targets(&tpos, &mut b);
        // identical traversal: the acceptance decisions (and so the
        // interaction count) cannot depend on the evaluation order
        assert_eq!(n_scalar, simd.last_interactions());
        assert!(rel_err(&b, &a) < 1e-12, "simd walk error {}", rel_err(&b, &a));
        // bitwise stable across reruns and worker counts
        let mut c = Vec::new();
        simd.max_threads = 7;
        simd.walk_targets(&tpos, &mut c);
        assert_eq!(b, c, "simd walk not run-to-run stable");
    }

    #[test]
    fn rebuild_walk_split_matches_combined() {
        let (pos, mass) = cloud(900, 31);
        let (tpos, _) = cloud(100, 2);
        // at or above the crossover the combined call is build + walk
        let mut solver = TreeGravity::with_crossover(0.5, 0.01, 900);
        let mut combined = Vec::new();
        solver.accelerations_into(&tpos, &pos, &mass, &mut combined);
        let mut split = Vec::new();
        solver.rebuild(&pos, &mass);
        solver.walk_targets(&tpos, &mut split);
        assert_eq!(combined, split);
        // walking twice against one build is the amortized pattern
        solver.walk_targets(&tpos, &mut split);
        assert_eq!(combined, split);
    }

    #[test]
    fn fi_is_accurate_to_percent_level() {
        let (pos, mass) = cloud(500, 3);
        let (tpos, _) = cloud(64, 9);
        let mut fi = Fi::new();
        let approx = scalar_walk(&mut fi.solver, &tpos, &pos, &mass);
        let exact = direct(&tpos, &pos, &mass, fi.solver.eps2);
        let err = rel_err(&approx, &exact);
        assert!(err < 0.05, "Fi error {err}");
    }

    #[test]
    fn octgrav_is_coarser_but_cheaper_than_fi() {
        let (pos, mass) = cloud(2000, 5);
        let (tpos, _) = cloud(128, 8);
        let mut fi = Fi::new();
        let mut oct = Octgrav::new();
        let a_fi = scalar_walk(&mut fi.solver, &tpos, &pos, &mass);
        let n_fi = fi.solver.last_interactions();
        let a_oct = scalar_walk(&mut oct.solver, &tpos, &pos, &mass);
        let n_oct = oct.solver.last_interactions();
        assert!(n_oct < n_fi, "octgrav does fewer interactions: {n_oct} vs {n_fi}");
        let exact = direct(&tpos, &pos, &mass, fi.solver.eps2);
        assert!(rel_err(&a_oct, &exact) < 0.15, "octgrav still reasonable");
        assert!(rel_err(&a_fi, &exact) <= rel_err(&a_oct, &exact) + 0.01);
    }

    #[test]
    fn tree_beats_direct_asymptotically_in_interactions() {
        let (pos, mass) = cloud(4000, 1);
        let mut fi = Fi::new();
        scalar_walk(&mut fi.solver, &pos, &pos, &mass);
        let inter = fi.solver.last_interactions();
        let direct_pairs = 4000u64 * 4000;
        assert!(inter * 4 < direct_pairs, "tree {inter} vs direct {direct_pairs} interactions");
    }

    #[test]
    fn empty_inputs() {
        let mut fi = Fi::new();
        assert!(scalar_walk(&mut fi.solver, &[], &[], &[]).is_empty());
        let a = scalar_walk(&mut fi.solver, &[[0.0; 3]], &[], &[]);
        assert_eq!(a, vec![[0.0; 3]]);
    }

    #[test]
    fn single_source_matches_pointmass() {
        let mut fi = TreeGravity::new(0.5, 0.0);
        let a = scalar_walk(&mut fi, &[[0.0, 0.0, 0.0]], &[[0.0, 0.0, 2.0]], &[4.0]);
        assert!((a[0][2] - 1.0).abs() < 1e-12, "{:?}", a[0]);
    }

    #[test]
    fn target_on_source_with_softening_is_finite() {
        let mut fi = TreeGravity::new(0.5, 0.01);
        let a = scalar_walk(&mut fi, &[[0.0; 3]], &[[0.0; 3]], &[1.0]);
        assert!(a[0].iter().all(|x| x.is_finite()));
    }

    /// What `accelerations_into` must equal on the direct side: the
    /// `jc_compute` lane kernel over all targets in one chunk.
    fn lane_sum(
        targets: &[[f64; 3]],
        s_pos: &[[f64; 3]],
        s_mass: &[f64],
        eps2: f64,
    ) -> Vec<[f64; 3]> {
        let mut src = SoaBodies::new();
        src.fill_from_positions(s_mass, s_pos);
        let mut out = vec![[0.0; 3]; targets.len()];
        accelerations_direct(targets, &src, eps2, &mut out);
        out
    }

    #[test]
    fn structure_is_picked_by_source_count_alone() {
        const CROSS: usize = 40;
        let (all, _) = cloud(400, 12);
        // one target and many — the target count must not enter the rule
        for nt in [1usize, 300] {
            let tpos = &all[..nt];
            for ns in [CROSS - 1, CROSS, CROSS + 1] {
                let (pos, mass) = cloud(ns, 77);
                let mut solver = TreeGravity::with_crossover(0.5, 0.01, CROSS);
                let mut got = Vec::new();
                solver.accelerations_into(tpos, &pos, &mass, &mut got);
                let inter = solver.last_interactions();
                if ns < CROSS {
                    assert_eq!(got, lane_sum(tpos, &pos, &mass, solver.eps2), "{nt}×{ns}");
                    assert_eq!(inter, (nt * ns) as u64, "direct sum counts every pair");
                } else {
                    let mut walked = Vec::new();
                    solver.rebuild(&pos, &mass);
                    solver.walk_targets(tpos, &mut walked);
                    assert_eq!(got, walked, "{nt}×{ns}");
                    assert_eq!(inter, solver.last_interactions());
                    assert!(inter < (nt * ns) as u64, "the walk accepts cells");
                }
            }
        }
        // `simd = false` names the tree walk at every source count
        let (pos, mass) = cloud(CROSS - 1, 77);
        let mut scalar = TreeGravity::new(0.5, 0.01);
        scalar.simd = false;
        let mut got = Vec::new();
        scalar.accelerations_into(&all[..9], &pos, &mass, &mut got);
        let mut walked = Vec::new();
        scalar.rebuild(&pos, &mass);
        scalar.walk_targets(&all[..9], &mut walked);
        assert_eq!(got, walked);
    }

    #[test]
    fn direct_sum_does_not_depend_on_threads_or_target_split() {
        let (pos, mass) = cloud(300, 21);
        let (tpos, _) = cloud(512, 5); // 7 workers × the 64-target grain
        let sum = |max_threads: usize, targets: &[[f64; 3]]| {
            let mut solver = TreeGravity::new(0.5, 0.01);
            solver.max_threads = max_threads;
            let mut out = Vec::new();
            solver.accelerations_into(targets, &pos, &mass, &mut out);
            assert_eq!(solver.last_interactions(), (targets.len() * pos.len()) as u64);
            out
        };
        let whole = sum(1, &tpos);
        assert_eq!(whole, lane_sum(&tpos, &pos, &mass, 1e-4));
        for threads in [2, 7] {
            assert_eq!(sum(threads, &tpos), whole, "threads = {threads}");
        }
        // a sharded coupler hands each of K shards a contiguous slice of
        // the targets and all of the sources
        for k in [2usize, 3] {
            let split: Vec<[f64; 3]> =
                tpos.chunks(tpos.len().div_ceil(k)).flat_map(|shard| sum(0, shard)).collect();
            assert_eq!(split, whole, "K = {k}");
        }
    }

    #[test]
    fn self_gravity_is_picked_by_population_alone() {
        const CROSS: usize = 40;
        for n in [CROSS - 1, CROSS, CROSS + 1] {
            let (pos, mass) = cloud(n, 77);
            let mut solver = TreeGravity::with_crossover(0.5, 0.01, CROSS);
            let mut got = Vec::new();
            solver.self_accelerations_into(&pos, &mass, &mut got);
            let inter = solver.last_interactions();
            let mut want = Vec::new();
            if n < CROSS {
                // the pair-symmetric sum: each unordered pair once, within
                // the mixed-precision budget of the directed sum
                solver.accelerations_into(&pos, &pos, &mass, &mut want);
                assert_within_budget(&got, &want, &format!("n = {n}"));
                assert_eq!(inter, (n * (n - 1) / 2) as u64, "each pair counted once");
            } else {
                solver.rebuild(&pos, &mass);
                solver.walk_targets(&pos, &mut want);
                assert_eq!(got, want, "n = {n}");
                assert_eq!(inter, solver.last_interactions());
            }
        }
        // `simd = false` names the tree walk at every population
        let (pos, mass) = cloud(CROSS - 1, 77);
        let mut scalar = TreeGravity::new(0.5, 0.01);
        scalar.simd = false;
        let mut got = Vec::new();
        scalar.self_accelerations_into(&pos, &mass, &mut got);
        let mut walked = Vec::new();
        scalar.rebuild(&pos, &mass);
        scalar.walk_targets(&pos, &mut walked);
        assert_eq!(got, walked);
    }

    #[test]
    fn pair_sum_does_not_depend_on_threads() {
        // 8 blocks of the pair-symmetric sum, so 7 workers really fan out
        let (pos, mass) = cloud(512, 21);
        let sum = |max_threads: usize| {
            let mut solver = TreeGravity::new(0.5, 0.01);
            solver.max_threads = max_threads;
            let mut out = Vec::new();
            solver.self_accelerations_into(&pos, &mass, &mut out);
            assert_eq!(solver.last_interactions(), 512 * 511 / 2);
            out
        };
        let whole = sum(1);
        assert_within_budget(&whole, &lane_sum(&pos, &pos, &mass, 1e-4), "512 particles");
        for threads in [0, 2, 7] {
            assert_eq!(sum(threads), whole, "threads = {threads}");
        }
    }

    #[test]
    fn pair_sum_edge_cases() {
        let mut solver = TreeGravity::new(0.5, 0.0);
        let mut out = vec![[9.0; 3]];
        solver.self_accelerations_into(&[], &[], &mut out);
        assert!(out.is_empty());
        assert_eq!(solver.last_interactions(), 0);
        // one particle feels nothing; two pull on each other
        solver.self_accelerations_into(&[[0.0; 3]], &[1.0], &mut out);
        assert_eq!(out, vec![[0.0; 3]]);
        assert_eq!(solver.last_interactions(), 0);
        solver.self_accelerations_into(&[[0.0; 3], [0.0, 0.0, 2.0]], &[4.0, 8.0], &mut out);
        assert_eq!(out, vec![[0.0, 0.0, 2.0], [0.0, 0.0, -1.0]]);
        assert_eq!(solver.last_interactions(), 1);
    }

    #[test]
    fn direct_sum_edge_cases() {
        let mut solver = TreeGravity::new(0.5, 0.0);
        let mut out = vec![[9.0; 3]];
        // no sources, no targets
        solver.accelerations_into(&[[0.0; 3]], &[], &[], &mut out);
        assert_eq!(out, vec![[0.0; 3]]);
        solver.accelerations_into(&[], &[[1.0; 3]], &[1.0], &mut out);
        assert!(out.is_empty());
        assert_eq!(solver.last_interactions(), 0);
        // one source is a point mass
        solver.accelerations_into(&[[0.0; 3]], &[[0.0, 0.0, 2.0]], &[4.0], &mut out);
        assert_eq!(out, vec![[0.0, 0.0, 1.0]]);
        assert_eq!(solver.last_interactions(), 1);
    }
}
