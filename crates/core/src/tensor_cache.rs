//! Geometry-invariant Landau tensor cache (tiled `TensorTable`).
//!
//! The Landau tensor `U(x_i, x_j)` (eq. 3 azimuthally integrated to the
//! `U^K`/`U^D` pair) depends only on quadrature-point *geometry* — which is
//! fixed for the life of a mesh. Yet the inner integral re-evaluates the
//! elliptic-integral-heavy [`landau_tensor_2d`] for all `(i, j)` pairs on
//! every Jacobian build: every Newton iteration, every implicit time step,
//! and every vertex of a batched advance. This module hoists that work into
//! a precomputed table, turning the hot path from transcendental-bound into
//! a streaming multiply-accumulate.
//!
//! [`landau_tensor_2d`]: crate::tensor::landau_tensor_2d
//!
//! **Layout.** The table is tiled by field *element* (j-blocked): for test
//! point `i` and field element `je`, one tile holds the five tensor streams
//! `k00, k10, d0, d1, d2` in SoA order, `nq` consecutive entries each, with
//! the combined quadrature weight `w[j]` pre-folded in. `U^K`'s second
//! column is not stored: [`landau_tensor_2d`] sets `k01 = d1` and `k11 = d2`
//! by assignment, so readers take those two from the `d` streams, bit for
//! bit. The self-interaction entry (`j == i`) is stored as zero, which
//! removes the `j != i` branch from the streaming loop entirely. Tile
//! address: `data[(i·N_e + je)·5·nq + c·nq + jj]`.
//!
//! **Memory model.** A full table is `5 · N² · 8 = 40 N²` bytes — 62.5 MiB
//! at the 80-cell Table-II mesh (`N = 1280`) but quadratic in `N`, so
//! [`TensorTable::build`] takes a byte budget: below it the table is fully
//! resident ([`CacheMode::Cached`]); above it only the geometry arrays are
//! kept and tiles are recomputed into caller scratch on the fly
//! ([`CacheMode::Recompute`]), preserving the API and the exact streaming
//! arithmetic (so results are bitwise identical across modes). Either way
//! a tile is one [`landau_tensor_2d_tile`] call, and a zero-budget
//! `Recompute` table (a handle on the mesh's [`IpPoints`]) is also what the
//! CPU backend folds over when no cache is enabled. A mesh's tables belong
//! to its [`crate::geometry::Geometry`], which builds the resident one at
//! most once.
//!
//! **Streaming.** A kernel *stages* the species sums `Σ_β f_β·(∇f_β, f_β)`
//! ([`CachedStream::stage`]) and *folds* tiles against them
//! ([`CachedStream::fold`]). The sums depend on the field point only, so
//! the CPU kernels stage all `N` points once per assembly; the CUDA-/
//! Kokkos-model kernels stage per tile, as Algorithm 1 is written.
//!
//! **Accounting.** [`TensorTable::stream_tally`] is the closed form of one
//! cached inner integral: tile construction goes to
//! [`Tally::cache_build_flops`], streamed tiles to [`Tally::cache_read`]
//! (mirrored into `dram_read` so arithmetic-intensity stays honest), and the
//! avoided tensor evaluations to [`Tally::cache_flops_saved`].

use crate::ipdata::{IpData, IpPoints};
use crate::tensor::{landau_tensor_2d_tile, TENSOR2D_FLOPS};
use landau_par::prelude::*;
use landau_vgpu::Tally;
use std::ops::Range;
use std::sync::Arc;

/// Tensor streams per tile: `k00, k10, d0, d1, d2` (`k01 ≡ d1`, `k11 ≡ d2`).
pub const STREAMS: usize = 5;

/// Default table budget: 256 MiB covers the Table-II meshes through 80
/// cells with room to spare; Table-II's 263-cell mesh (N = 4208) exceeds it
/// and falls back to recompute.
pub const DEFAULT_BUDGET_BYTES: usize = 256 << 20;

/// FLOPs per `(i, j)` pair when *building* a tile: the tensor evaluation
/// plus folding `w[j]` into the five streams.
pub const TILE_BUILD_FLOPS_PER_PAIR: u64 = TENSOR2D_FLOPS + STREAMS as u64;

/// FLOPs per `(i, j)` pair avoided by streaming a cached tile instead of
/// running the uncached [`pair_body`] tensor evaluation + weight folding.
///
/// Uncached: `TENSOR2D_FLOPS + 6s + 19` ([`crate::kernels::pair_flops`]);
/// cached with the species sums per pair: `6s + 14`; difference:
///
/// [`pair_body`]: crate::kernels
pub const PAIR_FLOPS_SAVED: u64 = TENSOR2D_FLOPS + 5;

/// FLOPs of the multiply-accumulate of one `(i, j)` pair against the tile.
pub const PAIR_FOLD_FLOPS: u64 = 14;

/// Whether the table is resident or recomputed per tile.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CacheMode {
    /// Full table in memory; `tile` streams precomputed entries.
    Cached,
    /// Budget exceeded; `tile` recomputes entries into caller scratch.
    Recompute,
}

/// The precomputed (or recompute-on-demand) geometry cache over one mesh's
/// integration points. A [`crate::geometry::Geometry`] owns the tables of
/// its mesh; every operator, time step and batch vertex on it streams them.
pub struct TensorTable {
    points: Arc<IpPoints>,
    ne: usize,
    mode: CacheMode,
    /// `Cached` mode: `(i·N_e + je)·5·nq + c·nq + jj`; empty in `Recompute`.
    data: Vec<f64>,
    build_tally: Tally,
}

impl TensorTable {
    /// Bytes a fully resident table needs for `n` integration points.
    pub fn required_bytes(n: usize) -> usize {
        STREAMS * n * n * 8
    }

    /// Build the cache over `points`, fully resident if
    /// `required_bytes(points.n) <= budget_bytes`, otherwise in recompute
    /// mode.
    ///
    /// The build parallelizes over test points with a deterministic
    /// in-order fold, so the table contents are a pure function of the
    /// geometry.
    pub fn build(points: &Arc<IpPoints>, budget_bytes: usize) -> Arc<TensorTable> {
        let (n, nq) = (points.n, points.nq);
        assert!(
            nq > 0 && n.is_multiple_of(nq),
            "points must tile into elements"
        );
        let ne = n / nq;
        let mut table = TensorTable {
            points: Arc::clone(points),
            ne,
            mode: if Self::required_bytes(n) <= budget_bytes {
                CacheMode::Cached
            } else {
                CacheMode::Recompute
            },
            data: Vec::new(),
            build_tally: Tally::new(),
        };
        let mut t = Tally::new();
        if table.mode == CacheMode::Cached {
            let row = STREAMS * n; // ne tiles of STREAMS * nq each
            let mut data = vec![0.0f64; n * row];
            let tt = &table;
            t = data
                .par_chunks_mut(row)
                .enumerate()
                .map(|(i, out)| {
                    for je in 0..ne {
                        tt.fill_tile(i, je, &mut out[je * STREAMS * nq..(je + 1) * STREAMS * nq]);
                    }
                    Tally {
                        dram_write: (row * 8) as u64,
                        ..Default::default()
                    }
                })
                .reduce(Tally::new, |a, b| a + b);
            table.data = data;
        }
        // The build reads the three geometry streams per row and evaluates
        // every off-diagonal pair once (recompute mode defers the same work
        // to `tile`, charged by `stream_tally` instead).
        if table.mode == CacheMode::Cached {
            let pairs = (n as u64) * (n as u64 - 1);
            t.flops += pairs * TILE_BUILD_FLOPS_PER_PAIR;
            t.cache_build_flops += pairs * TILE_BUILD_FLOPS_PER_PAIR;
            t.dram_read += (n * 3 * n * 8) as u64;
        }
        table.build_tally = t;
        Arc::new(table)
    }

    /// Compute one tile (all streams for test point `i` against field
    /// element `je`) into `out`, which must hold `STREAMS * nq` values. The
    /// integrable self-interaction singularity (`j == i`) is a stored zero,
    /// replacing the `j != i` branch of the per-pair path.
    fn fill_tile(&self, i: usize, je: usize, out: &mut [f64]) {
        let IpPoints { nq, r, z, w, .. } = &*self.points;
        let at = je * nq..(je + 1) * nq;
        landau_tensor_2d_tile(
            r[i],
            z[i],
            &r[at.clone()],
            &z[at.clone()],
            &w[at],
            (i / nq == je).then_some(i % nq),
            out,
        );
    }

    /// The tile for `(i, je)`: a slice of `STREAMS * nq` weighted tensor
    /// entries. In `Cached` mode this streams the resident table; in
    /// `Recompute` mode it fills `buf` (see [`Self::tile_buf`]).
    #[inline]
    pub fn tile<'a>(&'a self, i: usize, je: usize, buf: &'a mut [f64]) -> &'a [f64] {
        let len = STREAMS * self.nq();
        match self.mode {
            CacheMode::Cached => {
                let off = (i * self.ne + je) * len;
                &self.data[off..off + len]
            }
            CacheMode::Recompute => {
                self.fill_tile(i, je, &mut buf[..len]);
                &buf[..len]
            }
        }
    }

    /// Scratch for [`Self::tile`]: one tile in `Recompute` mode, nothing
    /// when the table is resident.
    pub fn tile_buf(&self) -> Vec<f64> {
        match self.mode {
            CacheMode::Cached => Vec::new(),
            CacheMode::Recompute => vec![0.0; STREAMS * self.nq()],
        }
    }

    /// Closed-form tally of one cached inner integral over this table with
    /// `ns` species: `14` FLOPs per pair for the fold, `6·ns` per staged
    /// field point — staged once per assembly when `hoisted` (what the CPU
    /// kernels execute), once per pair otherwise (the device models, which
    /// run Algorithm 1's `β` loop inside the pair loop) — and five streams
    /// of table bytes, or the tile rebuilds in `Recompute` mode.
    pub fn stream_tally(&self, ns: usize, hoisted: bool) -> Tally {
        let n = self.n() as u64;
        let staged = if hoisted { n } else { n * n };
        // The diagonal entry is a stored zero, not an evaluation.
        let pairs = n * (n - 1);
        let mut t = Tally {
            flops: PAIR_FOLD_FLOPS * n * n + 6 * ns as u64 * staged,
            ..Default::default()
        };
        match self.mode {
            CacheMode::Cached => {
                t.dram_read = self.table_bytes() as u64;
                t.cache_read = t.dram_read;
                t.cache_flops_saved = pairs * PAIR_FLOPS_SAVED;
            }
            CacheMode::Recompute => {
                t.cache_build_flops = pairs * TILE_BUILD_FLOPS_PER_PAIR;
                t.flops += t.cache_build_flops;
            }
        }
        t
    }

    /// Resident or recompute?
    pub fn mode(&self) -> CacheMode {
        self.mode
    }

    /// Integration points the table was built for.
    pub fn n(&self) -> usize {
        self.points.n
    }

    /// Points per element.
    pub fn nq(&self) -> usize {
        self.points.nq
    }

    /// Field elements (tiles per test point).
    pub fn n_elements(&self) -> usize {
        self.ne
    }

    /// Bytes held by the resident table (0 in recompute mode).
    pub fn table_bytes(&self) -> usize {
        self.data.len() * 8
    }

    /// The tally of the (one-time) build, for device accounting.
    pub fn build_tally(&self) -> Tally {
        self.build_tally
    }

    /// True if the table was built over `ip`'s points (the same allocation,
    /// or bitwise equal ones) — the precondition for folding it against
    /// that packed data.
    pub fn matches(&self, ip: &IpData) -> bool {
        let (p, q) = (&*self.points, &*ip.points);
        std::ptr::eq(p, q) || (p.nq == q.nq && p.r == q.r && p.z == q.z && p.w == q.w)
    }
}

/// The tiled inner-integral streaming kernel, shared by all cached
/// back-ends: borrow the table and packed field data once, then
/// [`CachedStream::stage`] the species sums and [`CachedStream::fold`]
/// `(i, je)` tiles against them ([`CachedStream::accumulate`] does both per
/// tile).
pub struct CachedStream<'a> {
    /// The geometry cache.
    pub table: &'a TensorTable,
    /// Packed field data (geometry must match the table).
    pub ip: &'a IpData,
    /// Per-species `K` field factors.
    pub fk: &'a [f64],
    /// Per-species `D` field factors.
    pub fd: &'a [f64],
}

/// Accumulator unroll width: four independent partial sums per output
/// component keep the multiply-accumulate dependency chains short enough
/// for LLVM to autovectorize, and the fixed `(p0+p1)+(p2+p3)` fold keeps
/// the reduction deterministic.
pub const UNROLL: usize = 4;

impl CachedStream<'_> {
    /// Stage the species sums `Σ_β f_β·(∂_r f_β, ∂_z f_β, f_β)` of the field
    /// points in `points` into `sums`, a lane-length `tkr | tkz | td` buffer
    /// (`3 · n`). The sums start at `+0.0` and add species in ascending
    /// order — the order of the uncached `pair_body`, so a staged value has
    /// the uncached one's bits wherever and however often it is staged.
    pub fn stage(&self, points: Range<usize>, sums: &mut [f64]) {
        let n = self.ip.n;
        let (tkr, rest) = sums.split_at_mut(n);
        let (tkz, td) = rest.split_at_mut(n);
        let (tkr, tkz, td) = (
            &mut tkr[points.clone()],
            &mut tkz[points.clone()],
            &mut td[points.clone()],
        );
        tkr.fill(0.0);
        tkz.fill(0.0);
        td.fill(0.0);
        for (b, (&fkb, &fdb)) in self.fk.iter().zip(self.fd).enumerate() {
            let at = b * n + points.start..b * n + points.end;
            let dfr = &self.ip.dfr[at.clone()];
            let dfz = &self.ip.dfz[at.clone()];
            let f = &self.ip.f[at];
            for jj in 0..points.len() {
                tkr[jj] += fkb * dfr[jj];
                tkz[jj] += fkb * dfz[jj];
                td[jj] += fdb * f[jj];
            }
        }
    }

    /// Fold tile `(i, je)` into `acc = [gk_r, gk_z, gd_rr, gd_rz, gd_zz]`
    /// against the staged `sums`: the five tensor streams are multiplied in
    /// with unrolled accumulators, `d1`/`d2` standing in for the
    /// `k01`/`k11` they are copies of. `tile_buf` is
    /// [`TensorTable::tile_buf`] scratch.
    #[inline]
    pub fn fold(
        &self,
        i: usize,
        je: usize,
        sums: &[f64],
        tile_buf: &mut [f64],
        acc: &mut [f64; 5],
    ) {
        let nq = self.table.nq();
        let n = self.ip.n;
        let at = je * nq..(je + 1) * nq;
        let tkr = &sums[at.clone()];
        let tkz = &sums[n..][at.clone()];
        let td = &sums[2 * n..][at];
        let streams = self.table.tile(i, je, tile_buf);
        let (k00, rest) = streams.split_at(nq);
        let (k10, rest) = rest.split_at(nq);
        let (d0, rest) = rest.split_at(nq);
        let (d1, d2) = rest.split_at(nq);
        let mut p = [[0.0f64; UNROLL]; 5];
        let mut jj = 0;
        while jj + UNROLL <= nq {
            #[allow(clippy::needless_range_loop)] // lockstep index into 5 lanes
            for l in 0..UNROLL {
                let j = jj + l;
                p[0][l] += k00[j] * tkr[j] + d1[j] * tkz[j];
                p[1][l] += k10[j] * tkr[j] + d2[j] * tkz[j];
                p[2][l] += d0[j] * td[j];
                p[3][l] += d1[j] * td[j];
                p[4][l] += d2[j] * td[j];
            }
            jj += UNROLL;
        }
        while jj < nq {
            let l = jj % UNROLL;
            p[0][l] += k00[jj] * tkr[jj] + d1[jj] * tkz[jj];
            p[1][l] += k10[jj] * tkr[jj] + d2[jj] * tkz[jj];
            p[2][l] += d0[jj] * td[jj];
            p[3][l] += d1[jj] * td[jj];
            p[4][l] += d2[jj] * td[jj];
            jj += 1;
        }
        for (c, a) in acc.iter_mut().enumerate() {
            *a += (p[c][0] + p[c][1]) + (p[c][2] + p[c][3]);
        }
    }

    /// Algorithm 1 as the paper wrote it, for the device-model kernels:
    /// stage tile `je`'s species sums inside the pair loop, then fold.
    #[inline]
    pub fn accumulate(
        &self,
        i: usize,
        je: usize,
        sums: &mut [f64],
        tile_buf: &mut [f64],
        acc: &mut [f64; 5],
    ) {
        let nq = self.table.nq();
        self.stage(je * nq..(je + 1) * nq, sums);
        self.fold(i, je, sums, tile_buf, acc);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::species::SpeciesList;
    use landau_fem::FemSpace;
    use landau_mesh::presets::uniform_mesh;

    fn setup() -> IpData {
        let space = FemSpace::new(uniform_mesh(3.0, 1), 2);
        let sl = SpeciesList::electron_deuterium();
        IpData::new(&space, &sl)
    }

    #[test]
    fn required_bytes_formula() {
        assert_eq!(TensorTable::required_bytes(1280), 40 * 1280 * 1280);
    }

    #[test]
    fn budget_selects_mode() {
        let ip = setup();
        let full = TensorTable::build(&ip.points, usize::MAX);
        assert_eq!(full.mode(), CacheMode::Cached);
        assert_eq!(full.table_bytes(), TensorTable::required_bytes(ip.n));
        assert!(full.build_tally().cache_build_flops > 0);
        assert!(full.tile_buf().is_empty());
        let re = TensorTable::build(&ip.points, 0);
        assert_eq!(re.mode(), CacheMode::Recompute);
        assert_eq!(re.table_bytes(), 0);
        assert_eq!(re.build_tally(), Tally::new());
        assert_eq!(re.tile_buf().len(), STREAMS * ip.nq);
    }

    #[test]
    fn cached_and_recomputed_tiles_agree_bitwise() {
        let ip = setup();
        let full = TensorTable::build(&ip.points, usize::MAX);
        let re = TensorTable::build(&ip.points, 0);
        let ne = ip.n / ip.nq;
        let mut buf = re.tile_buf();
        for &i in &[0usize, 7, ip.n - 1] {
            for je in 0..ne {
                let a = full.tile(i, je, &mut []).to_vec();
                let b = re.tile(i, je, &mut buf);
                for (x, y) in a.iter().zip(b) {
                    assert_eq!(x.to_bits(), y.to_bits(), "tile ({i},{je})");
                }
            }
        }
    }

    #[test]
    fn stream_tally_charges_what_each_mode_executes() {
        let ip = setup();
        let n = ip.n as u64;
        let full = TensorTable::build(&ip.points, usize::MAX).stream_tally(2, true);
        assert_eq!(full.flops, 14 * n * n + 6 * 2 * n);
        assert_eq!(full.dram_read, 40 * n * n);
        assert_eq!(full.cache_read, full.dram_read);
        assert_eq!(full.cache_flops_saved, n * (n - 1) * PAIR_FLOPS_SAVED);
        assert_eq!(full.cache_build_flops, 0);
        let re = TensorTable::build(&ip.points, 0).stream_tally(2, false);
        let build = n * (n - 1) * TILE_BUILD_FLOPS_PER_PAIR;
        assert_eq!(re.flops, (14 + 6 * 2) * n * n + build);
        assert_eq!(re.cache_build_flops, build);
        assert_eq!((re.cache_read, re.dram_read), (0, 0));
    }

    #[test]
    fn table_matches_its_geometry() {
        let ip = setup();
        let table = TensorTable::build(&ip.points, usize::MAX);
        assert!(table.matches(&ip));
        let space = FemSpace::new(uniform_mesh(3.0, 2), 2);
        let other = IpData::new(&space, &SpeciesList::electron_deuterium());
        assert!(!table.matches(&other));
    }

    #[test]
    fn diagonal_entries_are_zero() {
        let ip = setup();
        let full = TensorTable::build(&ip.points, usize::MAX);
        let nq = ip.nq;
        let i = nq + 3; // element 1, local point 3
        let tile = full.tile(i, 1, &mut []);
        for c in 0..STREAMS {
            assert_eq!(tile[c * nq + 3].to_bits(), 0, "diagonal slot of stream {c}");
        }
        // Off-diagonal entries are genuine tensor values (the diagonal
        // principal streams k00/d0 are strictly positive kernels).
        assert_ne!(tile[4], 0.0);
        assert_ne!(tile[2 * nq + 4], 0.0);
    }
}
