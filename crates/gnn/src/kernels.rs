//! Deterministic compute kernels for GNN training and inference.
//!
//! Every kernel here obeys one contract: **the bit pattern of the output
//! depends only on the inputs, never on the thread count**.
//! Two rules make that possible:
//!
//! 1. *Row ownership* — every output row is computed entirely by one worker
//!    running the same sequential code at any thread count, so partitioning
//!    rows across threads cannot change a single bit.
//! 2. *Fixed-chunk ordered reduction* — the one kernel that reduces over the
//!    huge node dimension ([`gemm_tn`], used for `∂W = Xᵀ·∂Z`) splits the
//!    reduction into fixed [`REDUCE_CHUNK`]-row chunks **independent of the
//!    thread count**, computes each partial slab separately, and adds the
//!    slabs sequentially in chunk order. This is the same rule
//!    `tmm_sta::view`'s sweep uses for its worker partitioning.
//!
//! All three GEMMs ([`gemm`], [`gemm_tn`], [`gemm_nt`]) run on one
//! safe-Rust register-tiled microkernel: `4×8` output tiles whose
//! accumulators stay in registers for the whole reduction, plus width-1
//! tails for the scoring head's `n = 1` and `k = 1` shapes. It reads `A`
//! through a row and a `k` stride, so [`gemm_tn`] passes its transposed
//! operand as is; [`gemm_nt`] first transposes its small weight operand
//! into a caller-owned scratch. Every output element is one ascending-`k`
//! sum of products starting from `+0.0`, with no FMA, so tiling never
//! changes a bit. The backward pass also skips the first layer's input
//! gradient (`backward_into` takes `dh: Option<_>`): nothing reads the
//! gradient of the input features, so that `dz·Wᵀ` product and its
//! adjoint gather are not computed at all.
//!
//! The [`naive`] module holds straightforward sequential reference
//! implementations of the same bit-spec. No policy selects them: the
//! proptest suite and the differential checker call them directly and
//! assert blocked == naive at any thread count, bit for bit.
//!
//! Kernels write into caller-provided buffers so the steady-state training
//! loop performs no heap allocation (see `model::Workspace`).

use crate::graph::NodeGraph;

/// Fixed reduction-chunk length (rows of the summed dimension) used by
/// [`gemm_tn`]. Chunking is a property of the *algorithm*, not the thread
/// count, so results are identical at any parallelism.
pub const REDUCE_CHUNK: usize = 2048;

/// Minimum number of scalar operations a worker must have before spawning
/// it pays for itself; below this everything runs on the calling thread.
const MIN_OPS_PER_WORKER: usize = 1 << 17;

/// Execution policy threaded through every kernel call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelPolicy {
    /// Worker-thread budget. `0` resolves to the machine's available
    /// parallelism; `1` (the default) keeps everything on the caller.
    pub threads: usize,
}

impl Default for KernelPolicy {
    fn default() -> Self {
        KernelPolicy { threads: 1 }
    }
}

impl KernelPolicy {
    /// Policy with the given thread budget.
    #[must_use]
    pub fn with_threads(threads: usize) -> Self {
        KernelPolicy { threads }
    }

    fn resolved_threads(self) -> usize {
        if self.threads == 0 {
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        } else {
            self.threads
        }
    }

    /// Number of workers to use for `units` independent work items costing
    /// `ops_per_unit` scalar operations each. Engages parallelism only when
    /// every spawned worker gets at least [`MIN_OPS_PER_WORKER`] ops.
    fn workers_for(self, units: usize, ops_per_unit: usize) -> usize {
        let t = self.resolved_threads();
        if t <= 1 || units <= 1 {
            return 1;
        }
        let total = units.saturating_mul(ops_per_unit);
        t.min(total / MIN_OPS_PER_WORKER).min(units).max(1)
    }
}

/// Runs `body(first_row, rows_slice)` over row-chunks of `out`, either
/// inline (`workers <= 1`) or on scoped threads. Each row belongs to exactly
/// one chunk, so any worker count produces identical bits.
fn par_row_chunks<F>(out: &mut [f32], width: usize, workers: usize, body: &F)
where
    F: Fn(usize, &mut [f32]) + Sync,
{
    if out.is_empty() || width == 0 {
        return;
    }
    let rows = out.len() / width;
    if workers <= 1 || rows <= 1 {
        body(0, out);
        return;
    }
    let chunk_rows = rows.div_ceil(workers);
    std::thread::scope(|s| {
        for (ci, chunk) in out.chunks_mut(chunk_rows * width).enumerate() {
            s.spawn(move || body(ci * chunk_rows, chunk));
        }
    });
}

// ---------------------------------------------------------------------------
// GEMM family
// ---------------------------------------------------------------------------

/// Rows of the microkernel's register tile.
const MR: usize = 4;
/// Columns of the microkernel's register tile.
const NR: usize = 8;

/// The one GEMM microkernel behind [`gemm`], [`gemm_tn`] and [`gemm_nt`]:
/// for `out` viewed as rows of width `n`,
/// `out[r][j] = Σ_{kk<k} a[r·ars + kk·aks] · b[kk·brs + j]`.
///
/// The strides let one loop nest read `A` row-major (`ars = k, aks = 1`)
/// or transposed (`ars = 1, aks = stride`). Outputs are computed in
/// `MR×NR` tiles whose accumulators live in registers for the whole `k`
/// loop; width-1 tails cover the rows and columns a full tile does not.
/// Each output element is one ascending-`kk` sum of products starting
/// from `+0.0`, with a separate multiply and add (no FMA), so the bits
/// match the `naive` references whatever the tiling.
#[allow(clippy::too_many_arguments)]
fn microkernel(
    a: &[f32],
    ars: usize,
    aks: usize,
    b: &[f32],
    brs: usize,
    out: &mut [f32],
    k: usize,
    n: usize,
) {
    let mut r = 0usize;
    let mut quads = out.chunks_exact_mut(MR * n);
    for quad in &mut quads {
        tile_row::<MR>(a, r * ars, ars, aks, b, brs, quad, k, n);
        r += MR;
    }
    for orow in quads.into_remainder().chunks_exact_mut(n) {
        tile_row::<1>(a, r * ars, ars, aks, b, brs, orow, k, n);
        r += 1;
    }
}

/// One band of `R` output rows of [`microkernel`], starting at `a[a0]`:
/// full `R×NR` tiles, then single columns.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn tile_row<const R: usize>(
    a: &[f32],
    a0: usize,
    ars: usize,
    aks: usize,
    b: &[f32],
    brs: usize,
    band: &mut [f32],
    k: usize,
    n: usize,
) {
    let mut j = 0usize;
    while j + NR <= n {
        let acc = tile::<R, NR>(a, a0, ars, aks, b, j, brs, k);
        for (i, row) in acc.iter().enumerate() {
            band[i * n + j..i * n + j + NR].copy_from_slice(row);
        }
        j += NR;
    }
    while j < n {
        let acc = tile::<R, 1>(a, a0, ars, aks, b, j, brs, k);
        for (i, row) in acc.iter().enumerate() {
            band[i * n + j] = row[0];
        }
        j += 1;
    }
}

/// An `R×C` block of accumulators held across the whole `k` loop.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn tile<const R: usize, const C: usize>(
    a: &[f32],
    a0: usize,
    ars: usize,
    aks: usize,
    b: &[f32],
    b0: usize,
    brs: usize,
    k: usize,
) -> [[f32; C]; R] {
    let mut acc = [[0.0f32; C]; R];
    for kk in 0..k {
        let bk = &b[b0 + kk * brs..b0 + kk * brs + C];
        let ak = a0 + kk * aks;
        for (i, row) in acc.iter_mut().enumerate() {
            let av = a[ak + i * ars];
            for (o, &bv) in row.iter_mut().zip(bk) {
                *o += av * bv;
            }
        }
    }
    acc
}

/// `out = A · B` where `A` is `m×k`, `B` is `k×n`, `out` is `m×n`.
///
/// Row-parallel over the [`microkernel`]; per output element the products
/// are added in ascending-`k` order, matching [`naive::gemm`] bit for bit.
///
/// # Panics
///
/// Panics if the buffer lengths do not match the given shape.
pub fn gemm(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize, pol: KernelPolicy) {
    assert_eq!(a.len(), m * k, "gemm: A shape");
    assert_eq!(b.len(), k * n, "gemm: B shape");
    assert_eq!(out.len(), m * n, "gemm: out shape");
    if m == 0 || n == 0 {
        return;
    }
    let workers = pol.workers_for(m, 2 * k * n);
    par_row_chunks(out, n, workers, &|row0, chunk| gemm_rows(a, b, chunk, row0, k, n));
}

/// Rows `row0..` of `A·B` into `chunk`.
fn gemm_rows(a: &[f32], b: &[f32], chunk: &mut [f32], row0: usize, k: usize, n: usize) {
    microkernel(&a[row0 * k..], k, 1, b, n, chunk, k, n);
}

/// `out = Aᵀ · B` without materialising the transpose: `A` is
/// `k_rows×a_stride` (only its first `m` columns participate), `B` is
/// `k_rows×n`, `out` is `m×n`.
///
/// The reduction over `k_rows` (the node dimension — potentially hundreds of
/// thousands) uses the fixed-chunk ordered-reduction rule: partial `m×n`
/// slabs per [`REDUCE_CHUNK`] rows, each one [`microkernel`] call reading
/// `A` through its stride (possibly in parallel), then summed sequentially
/// in chunk order. `scratch` holds the slabs and is reused across calls.
///
/// # Panics
///
/// Panics if the buffer lengths do not match the given shape or
/// `a_stride < m`.
pub fn gemm_tn(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    k_rows: usize,
    m: usize,
    n: usize,
    a_stride: usize,
    scratch: &mut Vec<f32>,
    pol: KernelPolicy,
) {
    assert!(a_stride >= m, "gemm_tn: stride narrower than m");
    assert_eq!(a.len(), k_rows * a_stride, "gemm_tn: A shape");
    assert_eq!(b.len(), k_rows * n, "gemm_tn: B shape");
    assert_eq!(out.len(), m * n, "gemm_tn: out shape");
    if m == 0 || n == 0 {
        return;
    }
    out.fill(0.0);
    if k_rows == 0 {
        return;
    }
    let n_chunks = k_rows.div_ceil(REDUCE_CHUNK);
    let slab = m * n;
    scratch.clear();
    scratch.resize(n_chunks * slab, 0.0);
    let workers = pol.workers_for(n_chunks, REDUCE_CHUNK * 2 * slab);
    par_row_chunks(scratch, slab, workers, &|c0, slabs| {
        for (ci, p) in slabs.chunks_exact_mut(slab).enumerate() {
            let kk0 = (c0 + ci) * REDUCE_CHUNK;
            let kk1 = (kk0 + REDUCE_CHUNK).min(k_rows);
            microkernel(&a[kk0 * a_stride..], 1, a_stride, &b[kk0 * n..], n, p, kk1 - kk0, n);
        }
    });
    for p in scratch.chunks_exact(slab) {
        for (o, &v) in out.iter_mut().zip(p) {
            *o += v;
        }
    }
}

/// `out = A · Bᵀ`: `A` is `m×k`, `B` is `n×k`, `out` is `m×n`.
///
/// `B` (a layer's weight, small) is first transposed into `scratch`, which
/// is reused across calls; the product is then row-parallel over the
/// [`microkernel`], each output element one sequential ascending-`k` dot
/// product, matching [`naive::gemm_nt`] bit for bit.
///
/// # Panics
///
/// Panics if the buffer lengths do not match the given shape.
#[allow(clippy::too_many_arguments)]
pub fn gemm_nt(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    scratch: &mut Vec<f32>,
    pol: KernelPolicy,
) {
    assert_eq!(a.len(), m * k, "gemm_nt: A shape");
    assert_eq!(b.len(), n * k, "gemm_nt: B shape");
    assert_eq!(out.len(), m * n, "gemm_nt: out shape");
    if m == 0 || n == 0 {
        return;
    }
    scratch.clear();
    scratch.resize(k * n, 0.0);
    for (j, brow) in b.chunks_exact(k.max(1)).enumerate() {
        for (kk, &v) in brow.iter().enumerate() {
            scratch[kk * n + j] = v;
        }
    }
    let bt: &[f32] = scratch;
    let workers = pol.workers_for(m, 2 * k * n);
    par_row_chunks(out, n, workers, &|row0, chunk| gemm_rows(a, bt, chunk, row0, k, n));
}

// ---------------------------------------------------------------------------
// Element-wise epilogues (order-independent, kept sequential)
// ---------------------------------------------------------------------------

/// In-place fused bias-add + ReLU: `out[r][c] = relu(out[r][c] + bias[c])`.
///
/// Element-wise, so evaluation order cannot affect the result.
pub fn bias_relu(out: &mut [f32], bias: &[f32]) {
    if bias.is_empty() {
        return;
    }
    for row in out.chunks_exact_mut(bias.len()) {
        for (o, &b) in row.iter_mut().zip(bias) {
            *o = (*o + b).max(0.0);
        }
    }
}

/// ReLU backward gate: `dz[e] = d_out[e] * (out_fwd[e] > 0 ? 1 : 0)`.
///
/// `out_fwd` is the *post*-activation value; `out > 0 ⇔ z > 0` under the
/// ReLU 0-at-0 convention, so caching pre-activations is unnecessary.
pub fn relu_gate(out_fwd: &[f32], d_out: &[f32], dz: &mut [f32]) {
    for ((z, &o), &g) in dz.iter_mut().zip(out_fwd).zip(d_out) {
        *z = g * if o > 0.0 { 1.0 } else { 0.0 };
    }
}

/// Column sums of a row-major `rows×cols` buffer into `out` (length `cols`),
/// accumulated in ascending row order.
pub fn col_sums(a: &[f32], cols: usize, out: &mut [f32]) {
    out.fill(0.0);
    if cols == 0 {
        return;
    }
    for row in a.chunks_exact(cols) {
        for (o, &v) in out.iter_mut().zip(row) {
            *o += v;
        }
    }
}

// ---------------------------------------------------------------------------
// CSR aggregation family
// ---------------------------------------------------------------------------

/// Mean neighborhood aggregation into a caller buffer:
/// `out[i] = mean(h[j] for j ∈ N(i))`, zero rows for isolated nodes.
///
/// # Panics
///
/// Panics if the buffer lengths do not match `g.nodes() × cols`.
pub fn mean_aggregate_into(
    g: &NodeGraph,
    h: &[f32],
    cols: usize,
    out: &mut [f32],
    pol: KernelPolicy,
) {
    assert_eq!(h.len(), g.nodes() * cols, "mean_aggregate: h shape");
    assert_eq!(out.len(), g.nodes() * cols, "mean_aggregate: out shape");
    if cols == 0 || g.nodes() == 0 {
        return;
    }
    let workers = pol.workers_for(g.nodes(), 2 * cols * (g.neighbor_entries() / g.nodes() + 1));
    par_row_chunks(out, cols, workers, &|row0, chunk| {
        for (r, orow) in chunk.chunks_exact_mut(cols).enumerate() {
            let i = row0 + r;
            orow.fill(0.0);
            let nbrs = g.neighbors(i);
            if nbrs.is_empty() {
                continue;
            }
            for &j in nbrs {
                let src = &h[j as usize * cols..(j as usize + 1) * cols];
                for (o, &v) in orow.iter_mut().zip(src) {
                    *o += v;
                }
            }
            let inv = g.inv_deg()[i];
            for o in orow.iter_mut() {
                *o *= inv;
            }
        }
    });
}

/// Adjoint of mean aggregation into a caller buffer. The sequential
/// reference *scatters* `grad[i]/|N(i)|` to every neighbor; this kernel
/// *gathers* over the precomputed transpose CSR instead, whose source lists
/// preserve the scatter's exact per-destination addition order — bit-equal
/// results, but row-parallel.
///
/// # Panics
///
/// Panics if the buffer lengths do not match `g.nodes() × cols`.
pub fn mean_aggregate_adjoint_into(
    g: &NodeGraph,
    grad: &[f32],
    cols: usize,
    out: &mut [f32],
    pol: KernelPolicy,
) {
    assert_eq!(grad.len(), g.nodes() * cols, "adjoint: grad shape");
    assert_eq!(out.len(), g.nodes() * cols, "adjoint: out shape");
    if cols == 0 || g.nodes() == 0 {
        return;
    }
    let workers = pol.workers_for(g.nodes(), 2 * cols * (g.neighbor_entries() / g.nodes() + 1));
    par_row_chunks(out, cols, workers, &|row0, chunk| {
        for (r, orow) in chunk.chunks_exact_mut(cols).enumerate() {
            orow.fill(0.0);
            for &src in g.t_sources(row0 + r) {
                let s = src as usize;
                let inv = g.inv_deg()[s];
                let grow = &grad[s * cols..(s + 1) * cols];
                for (o, &v) in orow.iter_mut().zip(grow) {
                    *o += v * inv;
                }
            }
        }
    });
}

/// Symmetric-normalised GCN propagation `D^{-1/2}(A+I)D^{-1/2}·h` into a
/// caller buffer (self-loop first, then neighbors in CSR order — the same
/// per-row order as the reference).
///
/// # Panics
///
/// Panics if the buffer lengths do not match `g.nodes() × cols`.
pub fn gcn_propagate_into(
    g: &NodeGraph,
    h: &[f32],
    cols: usize,
    out: &mut [f32],
    pol: KernelPolicy,
) {
    assert_eq!(h.len(), g.nodes() * cols, "gcn: h shape");
    assert_eq!(out.len(), g.nodes() * cols, "gcn: out shape");
    if cols == 0 || g.nodes() == 0 {
        return;
    }
    let inv_sqrt = g.inv_sqrt_deg();
    let workers = pol.workers_for(g.nodes(), 2 * cols * (g.neighbor_entries() / g.nodes() + 2));
    par_row_chunks(out, cols, workers, &|row0, chunk| {
        for (r, orow) in chunk.chunks_exact_mut(cols).enumerate() {
            let i = row0 + r;
            orow.fill(0.0);
            let di = inv_sqrt[i];
            let w_self = di * di;
            let src = &h[i * cols..(i + 1) * cols];
            for (o, &v) in orow.iter_mut().zip(src) {
                *o += w_self * v;
            }
            for &j in g.neighbors(i) {
                let w = di * inv_sqrt[j as usize];
                let src = &h[j as usize * cols..(j as usize + 1) * cols];
                for (o, &v) in orow.iter_mut().zip(src) {
                    *o += w * v;
                }
            }
        }
    });
}

/// Fused GraphSAGE input build: `x[i] = [h[i] ‖ mean(h[j] for j ∈ N(i))]`
/// in one row-parallel pass (`x` is `n × 2d`). Replaces the former
/// `hcat(mean_aggregate(h))` pair, which allocated two matrices.
///
/// # Panics
///
/// Panics if the buffer lengths do not match.
pub fn sage_gather(g: &NodeGraph, h: &[f32], d: usize, x_out: &mut [f32], pol: KernelPolicy) {
    assert_eq!(h.len(), g.nodes() * d, "sage_gather: h shape");
    assert_eq!(x_out.len(), g.nodes() * 2 * d, "sage_gather: x shape");
    if d == 0 || g.nodes() == 0 {
        return;
    }
    let workers = pol.workers_for(g.nodes(), 2 * d * (g.neighbor_entries() / g.nodes() + 1));
    par_row_chunks(x_out, 2 * d, workers, &|row0, chunk| {
        for (r, xrow) in chunk.chunks_exact_mut(2 * d).enumerate() {
            let i = row0 + r;
            let (left, right) = xrow.split_at_mut(d);
            left.copy_from_slice(&h[i * d..(i + 1) * d]);
            right.fill(0.0);
            let nbrs = g.neighbors(i);
            if nbrs.is_empty() {
                continue;
            }
            for &j in nbrs {
                let src = &h[j as usize * d..(j as usize + 1) * d];
                for (o, &v) in right.iter_mut().zip(src) {
                    *o += v;
                }
            }
            let inv = g.inv_deg()[i];
            for o in right.iter_mut() {
                *o *= inv;
            }
        }
    });
}

/// Fused GraphSAGE input adjoint: given `dx` (`n × 2d`, gradients w.r.t.
/// the concatenated input), computes
/// `dh[j] = dx[j][..d] + Σ_{i : j ∈ N(i)} dx[i][d..] / |N(i)|`
/// in one row-parallel gather over the transpose CSR.
///
/// # Panics
///
/// Panics if the buffer lengths do not match.
pub fn sage_adjoint(g: &NodeGraph, dx: &[f32], d: usize, dh_out: &mut [f32], pol: KernelPolicy) {
    assert_eq!(dx.len(), g.nodes() * 2 * d, "sage_adjoint: dx shape");
    assert_eq!(dh_out.len(), g.nodes() * d, "sage_adjoint: dh shape");
    if d == 0 || g.nodes() == 0 {
        return;
    }
    let workers = pol.workers_for(g.nodes(), 2 * d * (g.neighbor_entries() / g.nodes() + 2));
    par_row_chunks(dh_out, d, workers, &|row0, chunk| {
        for (r, orow) in chunk.chunks_exact_mut(d).enumerate() {
            let j = row0 + r;
            orow.fill(0.0);
            for &src in g.t_sources(j) {
                let s = src as usize;
                let inv = g.inv_deg()[s];
                let grow = &dx[s * 2 * d + d..(s + 1) * 2 * d];
                for (o, &v) in orow.iter_mut().zip(grow) {
                    *o += v * inv;
                }
            }
            let direct = &dx[j * 2 * d..j * 2 * d + d];
            for (o, &v) in orow.iter_mut().zip(direct) {
                *o = v + *o;
            }
        }
    });
}

/// Fused GraphSAGE-pool input build: `x[i] = [h[i] ‖ max_{j∈N(i)} p[j]]`
/// with per-channel argmax recorded for the backward scatter (`u32::MAX`
/// marks an isolated node — its aggregate stays zero). Row-parallel; the
/// max scan per `(node, channel)` is the same strict-`>` first-winner scan
/// as the reference.
///
/// # Panics
///
/// Panics if the buffer lengths do not match.
#[allow(clippy::too_many_arguments)]
pub fn pool_max(
    g: &NodeGraph,
    p: &[f32],
    dp: usize,
    h: &[f32],
    d: usize,
    x_out: &mut [f32],
    argmax: &mut [u32],
    pol: KernelPolicy,
) {
    let n = g.nodes();
    assert_eq!(p.len(), n * dp, "pool_max: p shape");
    assert_eq!(h.len(), n * d, "pool_max: h shape");
    assert_eq!(x_out.len(), n * (d + dp), "pool_max: x shape");
    assert_eq!(argmax.len(), n * dp, "pool_max: argmax shape");
    if n == 0 || d + dp == 0 {
        return;
    }
    let width = d + dp;
    let workers = pol.workers_for(n, 2 * dp * (g.neighbor_entries() / n + 1) + d);
    let body = |row0: usize, xc: &mut [f32], ac: &mut [u32]| {
        for (r, (xrow, arow)) in
            xc.chunks_exact_mut(width).zip(ac.chunks_exact_mut(dp.max(1))).enumerate()
        {
            pool_max_row(g, p, dp, h, d, row0 + r, xrow, arow);
        }
    };
    if workers <= 1 || n <= 1 {
        body(0, x_out, argmax);
    } else {
        let chunk_rows = n.div_ceil(workers);
        std::thread::scope(|s| {
            for (ci, (xc, ac)) in x_out
                .chunks_mut(chunk_rows * width)
                .zip(argmax.chunks_mut(chunk_rows * dp.max(1)))
                .enumerate()
            {
                s.spawn(move || body(ci * chunk_rows, xc, ac));
            }
        });
    }
}

/// One row of [`pool_max`]: copy the node's own features, then per channel
/// scan the neighborhood for the strict maximum of the pooled features.
fn pool_max_row(
    g: &NodeGraph,
    p: &[f32],
    dp: usize,
    h: &[f32],
    d: usize,
    i: usize,
    xrow: &mut [f32],
    arow: &mut [u32],
) {
    let (left, right) = xrow.split_at_mut(d);
    left.copy_from_slice(&h[i * d..(i + 1) * d]);
    let nbrs = g.neighbors(i);
    if nbrs.is_empty() {
        right.fill(0.0);
        arow[..dp].fill(u32::MAX);
        return;
    }
    for c in 0..dp {
        let mut best = f32::NEG_INFINITY;
        let mut best_j = u32::MAX;
        for &j in nbrs {
            let v = p[j as usize * dp + c];
            if v > best {
                best = v;
                best_j = j;
            }
        }
        right[c] = best;
        arow[c] = best_j;
    }
}

// ---------------------------------------------------------------------------
// Naive reference implementations (the bit-spec)
// ---------------------------------------------------------------------------

/// Sequential reference implementations of every kernel above.
///
/// These are deliberately written as plain loops — independent of the
/// blocked code paths — and define the bit-spec the blocked kernels must
/// reproduce exactly. [`gemm_tn`](naive::gemm_tn) follows the same
/// fixed-chunk ordered-reduction rule (chunking is part of the *algorithm*,
/// not an artifact of parallelism). The adjoint reference uses the original
/// scatter formulation, making its bit-equality with the transpose-gather
/// kernels a genuine cross-check.
pub mod naive {
    use super::{NodeGraph, REDUCE_CHUNK};

    /// Reference `out = A·B` (ikj order, no shortcuts).
    pub fn gemm(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
        out.fill(0.0);
        for i in 0..m {
            for kk in 0..k {
                let av = a[i * k + kk];
                let brow = &b[kk * n..kk * n + n];
                let orow = &mut out[i * n..(i + 1) * n];
                for (o, &bv) in orow.iter_mut().zip(brow) {
                    *o += av * bv;
                }
            }
        }
    }

    /// Reference `out = Aᵀ·B` under the fixed-chunk ordered-reduction rule:
    /// one `m×n` partial slab per [`REDUCE_CHUNK`] rows of the summed
    /// dimension, slabs added to `out` in ascending chunk order.
    #[allow(clippy::too_many_arguments)]
    pub fn gemm_tn(
        a: &[f32],
        b: &[f32],
        out: &mut [f32],
        k_rows: usize,
        m: usize,
        n: usize,
        a_stride: usize,
        scratch: &mut Vec<f32>,
    ) {
        out.fill(0.0);
        if m == 0 || n == 0 {
            return;
        }
        let slab = m * n;
        let mut kk0 = 0usize;
        while kk0 < k_rows {
            let kk1 = (kk0 + REDUCE_CHUNK).min(k_rows);
            scratch.clear();
            scratch.resize(slab, 0.0);
            for kk in kk0..kk1 {
                let arow = &a[kk * a_stride..kk * a_stride + m];
                let brow = &b[kk * n..kk * n + n];
                for (i, &av) in arow.iter().enumerate() {
                    let prow = &mut scratch[i * n..(i + 1) * n];
                    for (o, &bv) in prow.iter_mut().zip(brow) {
                        *o += av * bv;
                    }
                }
            }
            for (o, &v) in out.iter_mut().zip(scratch.iter()) {
                *o += v;
            }
            kk0 = kk1;
        }
    }

    /// Reference `out = A·Bᵀ` (plain dot products, ascending `k`).
    pub fn gemm_nt(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
        for i in 0..m {
            let arow = &a[i * k..(i + 1) * k];
            for j in 0..n {
                let brow = &b[j * k..(j + 1) * k];
                let mut acc = 0.0f32;
                for (&av, &bv) in arow.iter().zip(brow) {
                    acc += av * bv;
                }
                out[i * n + j] = acc;
            }
        }
    }

    /// Reference mean aggregation (per-row gather, then scale).
    pub fn mean_aggregate(g: &NodeGraph, h: &[f32], cols: usize, out: &mut [f32]) {
        out.fill(0.0);
        for i in 0..g.nodes() {
            let nbrs = g.neighbors(i);
            if nbrs.is_empty() {
                continue;
            }
            let orow = &mut out[i * cols..(i + 1) * cols];
            for &j in nbrs {
                let src = &h[j as usize * cols..(j as usize + 1) * cols];
                for (o, &v) in orow.iter_mut().zip(src) {
                    *o += v;
                }
            }
            let inv = 1.0 / nbrs.len() as f32;
            for o in orow.iter_mut() {
                *o *= inv;
            }
        }
    }

    /// Reference adjoint in the original *scatter* formulation:
    /// `out[j] += grad[i]/|N(i)|` for every `j ∈ N(i)`, `i` ascending.
    pub fn mean_aggregate_adjoint(g: &NodeGraph, grad: &[f32], cols: usize, out: &mut [f32]) {
        out.fill(0.0);
        for i in 0..g.nodes() {
            let nbrs = g.neighbors(i);
            if nbrs.is_empty() {
                continue;
            }
            let inv = 1.0 / nbrs.len() as f32;
            for &j in nbrs {
                let src = &grad[i * cols..(i + 1) * cols];
                let dst = &mut out[j as usize * cols..(j as usize + 1) * cols];
                for (o, &v) in dst.iter_mut().zip(src) {
                    *o += v * inv;
                }
            }
        }
    }

    /// Reference GCN propagation (self-loop first, then CSR-order
    /// neighbors).
    pub fn gcn_propagate(g: &NodeGraph, h: &[f32], cols: usize, out: &mut [f32]) {
        out.fill(0.0);
        let inv_sqrt = g.inv_sqrt_deg();
        for i in 0..g.nodes() {
            let di = inv_sqrt[i];
            let orow = &mut out[i * cols..(i + 1) * cols];
            let w = di * di;
            let src = &h[i * cols..(i + 1) * cols];
            for (o, &v) in orow.iter_mut().zip(src) {
                *o += w * v;
            }
            for &j in g.neighbors(i) {
                let w = di * inv_sqrt[j as usize];
                let src = &h[j as usize * cols..(j as usize + 1) * cols];
                for (o, &v) in orow.iter_mut().zip(src) {
                    *o += w * v;
                }
            }
        }
    }

    /// Reference fused SAGE input build (`[h ‖ mean(h_N)]`).
    pub fn sage_gather(g: &NodeGraph, h: &[f32], d: usize, x_out: &mut [f32]) {
        for i in 0..g.nodes() {
            let xrow = &mut x_out[i * 2 * d..(i + 1) * 2 * d];
            let (left, right) = xrow.split_at_mut(d);
            left.copy_from_slice(&h[i * d..(i + 1) * d]);
            right.fill(0.0);
            let nbrs = g.neighbors(i);
            if nbrs.is_empty() {
                continue;
            }
            for &j in nbrs {
                let src = &h[j as usize * d..(j as usize + 1) * d];
                for (o, &v) in right.iter_mut().zip(src) {
                    *o += v;
                }
            }
            let inv = 1.0 / nbrs.len() as f32;
            for o in right.iter_mut() {
                *o *= inv;
            }
        }
    }

    /// Reference fused SAGE adjoint in scatter form: accumulate the
    /// aggregate adjoint into a zeroed buffer, then add the direct term
    /// (`dh = dx_left + Aᵀ·dx_right`, matching the kernel's operand order).
    pub fn sage_adjoint(g: &NodeGraph, dx: &[f32], d: usize, dh_out: &mut [f32]) {
        dh_out.fill(0.0);
        for i in 0..g.nodes() {
            let nbrs = g.neighbors(i);
            if nbrs.is_empty() {
                continue;
            }
            let inv = 1.0 / nbrs.len() as f32;
            for &j in nbrs {
                let src = &dx[i * 2 * d + d..(i + 1) * 2 * d];
                let dst = &mut dh_out[j as usize * d..(j as usize + 1) * d];
                for (o, &v) in dst.iter_mut().zip(src) {
                    *o += v * inv;
                }
            }
        }
        for j in 0..g.nodes() {
            let direct = &dx[j * 2 * d..j * 2 * d + d];
            let orow = &mut dh_out[j * d..(j + 1) * d];
            for (o, &v) in orow.iter_mut().zip(direct) {
                *o = v + *o;
            }
        }
    }

    /// Reference fused pool input build (max over pooled neighbor features
    /// with argmax recording; strict-`>` first-winner scan).
    #[allow(clippy::too_many_arguments)]
    pub fn pool_max(
        g: &NodeGraph,
        p: &[f32],
        dp: usize,
        h: &[f32],
        d: usize,
        x_out: &mut [f32],
        argmax: &mut [u32],
    ) {
        let width = d + dp;
        for i in 0..g.nodes() {
            let xrow = &mut x_out[i * width..(i + 1) * width];
            let (left, right) = xrow.split_at_mut(d);
            left.copy_from_slice(&h[i * d..(i + 1) * d]);
            let nbrs = g.neighbors(i);
            if nbrs.is_empty() {
                right.fill(0.0);
                argmax[i * dp..(i + 1) * dp].fill(u32::MAX);
                continue;
            }
            for c in 0..dp {
                let mut best = f32::NEG_INFINITY;
                let mut best_j = u32::MAX;
                for &j in nbrs {
                    let v = p[j as usize * dp + c];
                    if v > best {
                        best = v;
                        best_j = j;
                    }
                }
                right[c] = best;
                argmax[i * dp + c] = best_j;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::NeighborMode;

    fn pseudo(seed: u64, len: usize) -> Vec<f32> {
        let mut s = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
        (0..len)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                ((s % 2000) as f32 - 1000.0) / 333.0
            })
            .collect()
    }

    #[test]
    fn gemm_blocked_matches_naive_bitwise() {
        for &(m, k, n) in &[(1, 1, 1), (5, 3, 7), (9, 64, 33), (4, 0, 6), (13, 17, 1)] {
            let a = pseudo(m as u64 * 31 + k as u64, m * k);
            let b = pseudo(n as u64 * 7 + 3, k * n);
            let mut o1 = vec![9.0f32; m * n];
            let mut o2 = vec![-9.0f32; m * n];
            naive::gemm(&a, &b, &mut o1, m, k, n);
            gemm(&a, &b, &mut o2, m, k, n, KernelPolicy::with_threads(3));
            for (x, y) in o1.iter().zip(&o2) {
                assert_eq!(x.to_bits(), y.to_bits(), "gemm {m}x{k}x{n}");
            }
        }
    }

    #[test]
    fn gemm_tn_chunked_reduction_is_thread_invariant() {
        // k_rows spans multiple REDUCE_CHUNKs to exercise the reduction.
        let (k_rows, m, n) = (2 * REDUCE_CHUNK + 77, 6, 5);
        let a = pseudo(11, k_rows * m);
        let b = pseudo(12, k_rows * n);
        let mut reference = vec![0.0f32; m * n];
        let mut scr = Vec::new();
        naive::gemm_tn(&a, &b, &mut reference, k_rows, m, n, m, &mut scr);
        for threads in [1, 2, 8] {
            let mut out = vec![1.0f32; m * n];
            let mut scr2 = Vec::new();
            gemm_tn(&a, &b, &mut out, k_rows, m, n, m, &mut scr2, KernelPolicy::with_threads(threads));
            for (x, y) in reference.iter().zip(&out) {
                assert_eq!(x.to_bits(), y.to_bits(), "gemm_tn t={threads}");
            }
        }
    }

    #[test]
    fn gemm_tn_respects_stride() {
        // use only the left 2 of 5 columns of A
        let (k_rows, m, stride, n) = (10, 2, 5, 3);
        let a = pseudo(4, k_rows * stride);
        let b = pseudo(5, k_rows * n);
        let mut out = vec![0.0f32; m * n];
        let mut scr = Vec::new();
        gemm_tn(&a, &b, &mut out, k_rows, m, n, stride, &mut scr, KernelPolicy::default());
        // explicit check
        for i in 0..m {
            for j in 0..n {
                let mut want = 0.0f32;
                for kk in 0..k_rows {
                    want += a[kk * stride + i] * b[kk * n + j];
                }
                assert!((out[i * n + j] - want).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn gemm_nt_matches_naive_bitwise() {
        for &(m, k, n) in &[(3, 5, 4), (7, 1, 9), (2, 32, 2), (6, 8, 5)] {
            let a = pseudo(m as u64 + 100, m * k);
            let b = pseudo(n as u64 + 200, n * k);
            let mut o1 = vec![0.0f32; m * n];
            let mut o2 = vec![0.0f32; m * n];
            naive::gemm_nt(&a, &b, &mut o1, m, k, n);
            gemm_nt(&a, &b, &mut o2, m, k, n, &mut Vec::new(), KernelPolicy::with_threads(2));
            for (x, y) in o1.iter().zip(&o2) {
                assert_eq!(x.to_bits(), y.to_bits(), "gemm_nt {m}x{k}x{n}");
            }
        }
    }

    #[test]
    fn csr_kernels_match_naive_bitwise() {
        let g = NodeGraph::from_edges(
            6,
            &[(0, 1), (1, 2), (2, 3), (0, 3), (4, 1), (1, 0)],
            NeighborMode::Undirected,
        );
        // node 5 is isolated
        let cols = 3;
        let h = pseudo(9, 6 * cols);
        for threads in [1, 4] {
            let pol = KernelPolicy::with_threads(threads);
            let mut a1 = vec![0.0f32; 6 * cols];
            let mut a2 = vec![1.0f32; 6 * cols];
            naive::mean_aggregate(&g, &h, cols, &mut a1);
            mean_aggregate_into(&g, &h, cols, &mut a2, pol);
            assert_eq!(bits(&a1), bits(&a2), "mean t={threads}");

            naive::mean_aggregate_adjoint(&g, &h, cols, &mut a1);
            mean_aggregate_adjoint_into(&g, &h, cols, &mut a2, pol);
            assert_eq!(bits(&a1), bits(&a2), "adjoint t={threads}");

            naive::gcn_propagate(&g, &h, cols, &mut a1);
            gcn_propagate_into(&g, &h, cols, &mut a2, pol);
            assert_eq!(bits(&a1), bits(&a2), "gcn t={threads}");

            let mut x1 = vec![0.0f32; 6 * 2 * cols];
            let mut x2 = vec![2.0f32; 6 * 2 * cols];
            naive::sage_gather(&g, &h, cols, &mut x1);
            sage_gather(&g, &h, cols, &mut x2, pol);
            assert_eq!(bits(&x1), bits(&x2), "gather t={threads}");

            let dx = pseudo(10, 6 * 2 * cols);
            let mut d1 = vec![0.0f32; 6 * cols];
            let mut d2 = vec![3.0f32; 6 * cols];
            naive::sage_adjoint(&g, &dx, cols, &mut d1);
            sage_adjoint(&g, &dx, cols, &mut d2, pol);
            assert_eq!(bits(&d1), bits(&d2), "sage_adjoint t={threads}");

            let dp = 2;
            let p = pseudo(11, 6 * dp);
            let mut px1 = vec![0.0f32; 6 * (cols + dp)];
            let mut px2 = vec![4.0f32; 6 * (cols + dp)];
            let mut am1 = vec![0u32; 6 * dp];
            let mut am2 = vec![7u32; 6 * dp];
            naive::pool_max(&g, &p, dp, &h, cols, &mut px1, &mut am1);
            pool_max(&g, &p, dp, &h, cols, &mut px2, &mut am2, pol);
            assert_eq!(bits(&px1), bits(&px2), "pool_max x t={threads}");
            assert_eq!(am1, am2, "pool_max argmax t={threads}");
        }
    }

    #[test]
    fn relu_gate_and_bias_relu() {
        let mut z = vec![1.0f32, -2.0, 0.5, 0.0];
        bias_relu(&mut z, &[0.5, 0.5]);
        assert_eq!(z, vec![1.5, 0.0, 1.0, 0.5]);
        let mut dz = vec![0.0f32; 4];
        relu_gate(&z, &[10.0, 10.0, 10.0, 10.0], &mut dz);
        assert_eq!(dz, vec![10.0, 0.0, 10.0, 10.0]);
    }

    #[test]
    fn workers_engage_only_on_big_work() {
        let pol = KernelPolicy::with_threads(8);
        assert_eq!(pol.workers_for(10, 10), 1, "tiny work stays sequential");
        assert!(pol.workers_for(100_000, 1000) > 1, "big work parallelises");
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }
}
