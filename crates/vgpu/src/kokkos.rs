//! A Kokkos-style portable layer over the execution model.
//!
//! The paper's Kokkos implementation differs from the CUDA one in exactly
//! the ways mirrored here (§III-D): the hierarchy is expressed as
//! league / team / vector ranges, shared buffers are sized at run time
//! ("scratch" views), and the inner-integral reduction is a *generic*
//! `parallel_reduce` over any C++-object-like type with a default
//! constructor, copy constructor and add method — here the [`Reducer`]
//! trait. The genericity costs a little (run-time-sized scratch instead of
//! fixed registers), which is the honest analogue of the ~10–15% penalty
//! the paper measures for Kokkos-CUDA vs CUDA.
//!
//! Kernels are written against the [`Team`] trait and instantiated through
//! a [`TeamFactory`], so the same kernel body runs under the plain
//! [`TeamMember`] or under the static verifier's logging member in
//! [`crate::symbolic`] without modification.

use crate::counters::Tally;
use crate::spec::GpuSpec;

/// The Kokkos reduction concept: an identity ("default constructor"), a
/// copy, and a join ("add method") — the "obvious methods" the paper lists.
pub trait Reducer: Clone {
    /// The reduction identity (Kokkos' `init`).
    fn identity() -> Self;
    /// `self += other` (Kokkos' `join`).
    fn join(&mut self, other: &Self);
}

/// A [`Reducer`] whose results can be *compared*, so the static verifier
/// can prove that the pairwise tree join is insensitive to lane
/// ordering (bitwise or within a small relative tolerance). A reducer whose
/// `join` is order-dependent beyond rounding (e.g. "last lane wins") is
/// nondeterministic on real hardware, where warp scheduling picks the order.
pub trait ReducerCheck: Reducer {
    /// Maximum absolute component-wise difference to `other`.
    fn dist(&self, other: &Self) -> f64;
    /// Maximum absolute component magnitude (for relative tolerances).
    fn norm(&self) -> f64;
}

impl Reducer for f64 {
    fn identity() -> Self {
        0.0
    }
    fn join(&mut self, other: &Self) {
        *self += *other;
    }
}

impl ReducerCheck for f64 {
    fn dist(&self, other: &Self) -> f64 {
        (*self - *other).abs()
    }
    fn norm(&self) -> f64 {
        self.abs()
    }
}

/// A reducer over a fixed-size array (f, df pairs per species, etc.).
impl<const N: usize> Reducer for [f64; N] {
    fn identity() -> Self {
        [0.0; N]
    }
    fn join(&mut self, other: &Self) {
        for (a, b) in self.iter_mut().zip(other) {
            *a += *b;
        }
    }
}

impl<const N: usize> ReducerCheck for [f64; N] {
    fn dist(&self, other: &Self) -> f64 {
        self.iter()
            .zip(other)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }
    fn norm(&self) -> f64 {
        self.iter().map(|a| a.abs()).fold(0.0, f64::max)
    }
}

/// Execution policy for one league member (≈ CUDA block).
#[derive(Clone, Copy, Debug)]
pub struct TeamPolicy {
    /// League size (number of blocks / elements).
    pub league_size: usize,
    /// Team size (≈ blockDim.y, integration points).
    pub team_size: usize,
    /// Vector length (≈ blockDim.x, reduction lanes).
    pub vector_length: usize,
}

impl TeamPolicy {
    /// Threads one block of this policy occupies (`blockDim.x · blockDim.y`).
    pub fn threads_per_block(&self) -> usize {
        self.team_size.max(1) * self.vector_length.max(1)
    }
}

/// A team scratch allocation (≈ Kokkos `ScratchView` / CUDA `__shared__`).
///
/// Access goes through [`ScratchBuf::write`] / [`ScratchBuf::read`], which
/// take the accessing *lane* so the symbolic member can log every access
/// as an `(epoch, kind, lane, index)` event for the static verifier's
/// cross-lane race proofs. In plain mode the lane argument is ignored and
/// the accessors compile down to slice indexing.
///
/// Reads take `&self`: after a barrier has ordered the staging stores, a
/// buffer is a read-only tile that several consumers may share without
/// artificial exclusivity (the access log behind a logged read sits behind
/// a mutex, so logging needs no `&mut`). Writes keep `&mut self` — stores
/// genuinely mutate the tile.
pub struct ScratchBuf {
    data: Vec<f64>,
    sym: Option<crate::symbolic::SymTrack>,
}

impl ScratchBuf {
    /// Unlogged scratch (plain execution).
    pub(crate) fn plain(len: usize) -> Self {
        ScratchBuf {
            data: vec![0.0; len],
            sym: None,
        }
    }

    /// Symbolically logged scratch: every access is appended to the
    /// barrier-segmented access log the static verifier analyzes.
    pub(crate) fn symbolic(len: usize, sym: crate::symbolic::SymTrack) -> Self {
        ScratchBuf {
            data: vec![0.0; len],
            sym: Some(sym),
        }
    }

    /// Number of f64 slots.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when zero-length.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Store `v` at `idx` from vector lane `lane`.
    pub fn write(&mut self, lane: usize, idx: usize, v: f64) {
        if let Some(s) = &self.sym {
            // Out-of-bounds indices are reported to the verifier instead of
            // aborting the symbolic run.
            if !s.on_write(lane, idx) {
                return;
            }
        }
        self.data[idx] = v;
    }

    /// Load the value at `idx` from vector lane `lane`.
    pub fn read(&self, lane: usize, idx: usize) -> f64 {
        if let Some(s) = &self.sym {
            if !s.on_read(lane, idx) {
                return 0.0;
            }
        }
        self.data[idx]
    }

    /// Raw host-side view (bypasses the access log; for post-kernel reads).
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }
}

/// The portable team-member interface kernels are written against.
///
/// Implemented by the plain [`TeamMember`] and by
/// [`crate::symbolic::SymbolicTeamMember`]; kernels obtain a member through
/// a [`TeamFactory`], so the *same* kernel body runs in either mode.
pub trait Team {
    /// This member's league rank (block id).
    fn league_rank(&self) -> usize;

    /// The policy this member runs under.
    fn policy(&self) -> TeamPolicy;

    /// Mutable access to the member's tally.
    fn tally(&mut self) -> &mut Tally;

    /// Allocate team scratch (≈ `ScratchView`): run-time length, charged to
    /// the shared-memory counter. The static verifier proves the block's
    /// total fits every named [`GpuSpec`]'s per-block capacity.
    fn scratch(&mut self, len: usize) -> ScratchBuf;

    /// Team-wide barrier (`__syncthreads()` / `team_barrier()`): orders all
    /// scratch accesses before it against all accesses after it.
    fn barrier(&mut self) {}

    /// A barrier guarded by a per-lane predicate. On hardware a
    /// `__syncthreads()` under a lane-divergent predicate is undefined
    /// behavior; the symbolic member overrides this to record the
    /// divergence for the static verifier. The default takes the barrier
    /// only when every lane agrees, and skips a uniformly-false one.
    fn barrier_if(&mut self, pred: impl Fn(usize) -> bool) {
        let lanes_n = self.policy().vector_length.max(1);
        if (0..lanes_n).all(pred) {
            self.barrier();
        }
    }

    /// `Kokkos::parallel_for` over a `ThreadVectorRange(0, n)`: the body
    /// receives `(j, lane)` where `lane = j % vector_length` is the vector
    /// lane that executes iteration `j` on real hardware.
    fn vector_for(&mut self, n: usize, body: impl FnMut(usize, usize));

    /// `Kokkos::parallel_reduce` over a `ThreadVectorRange(0, n)` with a
    /// generic reducer object (see [`TeamMember::vector_reduce`]).
    fn vector_reduce<T: ReducerCheck>(&mut self, n: usize, body: impl FnMut(usize, &mut T)) -> T;

    /// `TeamThreadRange`: iterate the team dimension (≈ threadIdx.y).
    fn team_range(&self) -> core::ops::Range<usize> {
        0..self.policy().team_size
    }
}

/// Hands out [`Team`] members for each league rank — the seam where the
/// static verifier plugs in (a [`crate::symbolic::SymbolicCtx`] is a
/// factory of logging members; [`PlainFactory`] hands out plain ones).
/// `Sync` because the league dimension is driven in parallel across host
/// threads.
pub trait TeamFactory: Sync {
    /// The member type, borrowing the caller's per-block tally.
    type Member<'t>: Team
    where
        Self: 't;

    /// Create the member for one league rank.
    fn member<'t>(
        &'t self,
        league_rank: usize,
        policy: TeamPolicy,
        tally: &'t mut Tally,
    ) -> Self::Member<'t>;
}

/// Factory of plain (unlogged) [`TeamMember`]s.
#[derive(Clone, Copy, Debug, Default)]
pub struct PlainFactory;

impl TeamFactory for PlainFactory {
    type Member<'t>
        = TeamMember<'t>
    where
        Self: 't;

    fn member<'t>(
        &'t self,
        league_rank: usize,
        policy: TeamPolicy,
        tally: &'t mut Tally,
    ) -> TeamMember<'t> {
        TeamMember::new(league_rank, policy, tally)
    }
}

/// One team member's handle: league rank plus scratch allocation and the
/// vector-range reduction.
pub struct TeamMember<'t> {
    /// This member's league rank (block id).
    pub league_rank: usize,
    policy: TeamPolicy,
    scratch_used: u64,
    tally: &'t mut Tally,
}

impl<'t> TeamMember<'t> {
    /// Create a member handle (used by the driver loop in callers), under
    /// the default [`GpuSpec`] (V100).
    pub fn new(league_rank: usize, policy: TeamPolicy, tally: &'t mut Tally) -> Self {
        TeamMember {
            league_rank,
            policy,
            scratch_used: 0,
            tally,
        }
    }

    /// The policy this member runs under.
    pub fn policy(&self) -> TeamPolicy {
        self.policy
    }

    /// Mutable access to the member's tally.
    pub fn tally(&mut self) -> &mut Tally {
        self.tally
    }

    /// Allocate team scratch (≈ `ScratchView`): run-time length, charged to
    /// the shared-memory counter. Over-allocating the default spec's
    /// per-block capacity is a debug assertion here and a `V-CAPACITY`
    /// violation for the static verifier.
    pub fn scratch(&mut self, len: usize) -> ScratchBuf {
        let bytes = (len * 8) as u64;
        self.scratch_used += bytes;
        let capacity = GpuSpec::default().shared_mem_per_block;
        debug_assert!(
            self.scratch_used <= capacity,
            "scratch over-allocation: {} B in use, {capacity} B per block available",
            self.scratch_used,
        );
        self.tally.shared_bytes += bytes;
        ScratchBuf::plain(len)
    }

    /// `Kokkos::parallel_for` over a vector range (see [`Team::vector_for`]).
    pub fn vector_for(&mut self, n: usize, mut body: impl FnMut(usize, usize)) {
        let lanes_n = self.policy.vector_length.max(1);
        for j in 0..n {
            body(j, j % lanes_n);
        }
    }

    /// `Kokkos::parallel_reduce` over a `ThreadVectorRange(0, n)` with a
    /// generic reducer object.
    ///
    /// Each vector lane accumulates a privately default-constructed reducer
    /// over its strided items, then the lane results are joined pairwise in
    /// a tree — the machinery the Kokkos back-end "hides" for the user.
    pub fn vector_reduce<T: Reducer>(
        &mut self,
        n: usize,
        mut body: impl FnMut(usize, &mut T),
    ) -> T {
        let lanes_n = self.policy.vector_length.max(1);
        let lanes = lane_partials(lanes_n, n, &mut body);
        tree_join(lanes, self.tally)
    }

    /// `TeamThreadRange`: iterate the team dimension (≈ threadIdx.y).
    pub fn team_range(&self) -> core::ops::Range<usize> {
        0..self.policy.team_size
    }
}

impl Team for TeamMember<'_> {
    fn league_rank(&self) -> usize {
        self.league_rank
    }
    fn policy(&self) -> TeamPolicy {
        TeamMember::policy(self)
    }
    fn tally(&mut self) -> &mut Tally {
        TeamMember::tally(self)
    }
    fn scratch(&mut self, len: usize) -> ScratchBuf {
        TeamMember::scratch(self, len)
    }
    fn vector_for(&mut self, n: usize, body: impl FnMut(usize, usize)) {
        TeamMember::vector_for(self, n, body)
    }
    fn vector_reduce<T: ReducerCheck>(&mut self, n: usize, body: impl FnMut(usize, &mut T)) -> T {
        TeamMember::vector_reduce(self, n, body)
    }
}

/// Accumulate per-lane partials: lane `p` privately reduces the strided
/// items `p, p + L, p + 2L, …` — the run-time-sized lane storage is the
/// generic-object cost the paper describes.
pub(crate) fn lane_partials<T: Reducer>(
    lanes_n: usize,
    n: usize,
    body: &mut impl FnMut(usize, &mut T),
) -> Vec<T> {
    let mut lanes: Vec<T> = vec![T::identity(); lanes_n];
    for (p, lane) in lanes.iter_mut().enumerate() {
        let mut j = p;
        while j < n {
            body(j, lane);
            j += lanes_n;
        }
    }
    lanes
}

/// Pairwise tree join: fold the upper half onto the lower half until one
/// lane remains (handles non-power-of-two vector lengths). Kokkos moves
/// lane data for the join; counted like shuffles.
pub(crate) fn tree_join<T: Reducer>(mut lanes: Vec<T>, tally: &mut Tally) -> T {
    let mut width = lanes.len().max(1);
    while width > 1 {
        let lower = width.div_ceil(2);
        let (a, b) = lanes.split_at_mut(lower);
        for i in lower..width {
            a[i - lower].join(&b[i - lower]);
        }
        tally.shuffles += (width - lower) as u64;
        width = lower;
    }
    lanes.truncate(1);
    lanes.pop().unwrap_or_else(T::identity)
}

/// Serial fold of the lane partials in an arbitrary visit order — the
/// references the symbolic member compares the tree join against.
pub(crate) fn join_in_order<T: Reducer>(lanes: &[T], order: impl Iterator<Item = usize>) -> T {
    let mut acc = T::identity();
    for i in order {
        acc.join(&lanes[i]);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    fn member_with(policy: TeamPolicy, tally: &mut Tally) -> TeamMember<'_> {
        TeamMember::new(0, policy, tally)
    }

    #[test]
    fn vector_reduce_matches_serial_any_length() {
        // Kokkos does NOT require power-of-two vector lengths.
        for vl in [1usize, 2, 3, 5, 8, 16, 31] {
            let mut t = Tally::new();
            let p = TeamPolicy {
                league_size: 1,
                team_size: 1,
                vector_length: vl,
            };
            let mut m = member_with(p, &mut t);
            let got: f64 = m.vector_reduce(123, |j, acc| *acc += (j as f64).cos());
            let want: f64 = (0..123).map(|j| (j as f64).cos()).sum();
            assert!((got - want).abs() < 1e-9, "vl={vl}: {got} vs {want}");
        }
    }

    #[test]
    fn generic_object_reduction() {
        #[derive(Clone, Default)]
        struct MinMaxSum {
            min: f64,
            max: f64,
            sum: f64,
        }
        impl Reducer for MinMaxSum {
            fn identity() -> Self {
                Self::default()
            }
            fn join(&mut self, o: &Self) {
                self.min = self.min.min(o.min);
                self.max = self.max.max(o.max);
                self.sum += o.sum;
            }
        }
        let mut t = Tally::new();
        let p = TeamPolicy {
            league_size: 1,
            team_size: 4,
            vector_length: 8,
        };
        let mut m = member_with(p, &mut t);
        let r: MinMaxSum = m.vector_reduce(50, |j, acc: &mut MinMaxSum| {
            let v = (j as f64) - 25.0;
            acc.min = acc.min.min(v);
            acc.max = acc.max.max(v);
            acc.sum += v;
        });
        assert_eq!(r.min, -25.0);
        assert_eq!(r.max, 24.0);
        assert_eq!(r.sum, (0..50).map(|j| j as f64 - 25.0).sum::<f64>());
    }

    #[test]
    fn scratch_counts_shared_bytes() {
        let mut t = Tally::new();
        let p = TeamPolicy {
            league_size: 1,
            team_size: 1,
            vector_length: 1,
        };
        {
            let mut m = member_with(p, &mut t);
            let s = m.scratch(100);
            assert_eq!(s.len(), 100);
        }
        assert_eq!(t.shared_bytes, 800);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "scratch over-allocation")]
    fn scratch_over_capacity_is_a_debug_assertion() {
        let mut t = Tally::new();
        let p = TeamPolicy {
            league_size: 1,
            team_size: 1,
            vector_length: 1,
        };
        let mut m = member_with(p, &mut t);
        let _ = m.scratch(6 * 1024); // 48 KiB, fits the V100 default
        let _ = m.scratch(1); // 8 B past it
    }

    #[test]
    fn vector_for_assigns_strided_lanes() {
        let mut t = Tally::new();
        let p = TeamPolicy {
            league_size: 1,
            team_size: 1,
            vector_length: 4,
        };
        let mut m = member_with(p, &mut t);
        let mut seen = Vec::new();
        m.vector_for(10, |j, lane| seen.push((j, lane)));
        assert_eq!(seen.len(), 10);
        for (j, lane) in seen {
            assert_eq!(lane, j % 4);
        }
    }

    #[test]
    fn scratch_write_read_round_trip() {
        let mut t = Tally::new();
        let p = TeamPolicy {
            league_size: 1,
            team_size: 1,
            vector_length: 2,
        };
        let mut m = member_with(p, &mut t);
        let mut s = m.scratch(4);
        s.write(0, 0, 1.5);
        s.write(1, 1, -2.5);
        assert_eq!(s.read(0, 0), 1.5);
        assert_eq!(s.read(1, 1), -2.5);
        assert_eq!(s.as_slice(), &[1.5, -2.5, 0.0, 0.0]);
    }

    #[test]
    fn plain_factory_hands_out_members_generically() {
        fn run<F: TeamFactory>(f: &F) -> f64 {
            let mut t = Tally::new();
            let p = TeamPolicy {
                league_size: 1,
                team_size: 1,
                vector_length: 8,
            };
            let mut m = f.member(0, p, &mut t);
            m.vector_reduce(32, |j, acc: &mut f64| *acc += j as f64)
        }
        assert_eq!(run(&PlainFactory), (0..32).sum::<i32>() as f64);
    }

    #[test]
    fn team_range_covers_team() {
        let mut t = Tally::new();
        let p = TeamPolicy {
            league_size: 2,
            team_size: 16,
            vector_length: 16,
        };
        let m = member_with(p, &mut t);
        assert_eq!(m.team_range().len(), 16);
    }
}
