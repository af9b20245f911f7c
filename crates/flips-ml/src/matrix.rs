//! Row-major dense matrices with cache-blocked GEMM kernels.
//!
//! A deliberately small linear-algebra kernel: just the operations the
//! training stack needs (GEMM with optional transposes, row-broadcast adds,
//! element-wise maps) with bounds-checked constructors and debug-mode shape
//! assertions.
//!
//! # Kernel design
//!
//! The three GEMM variants (`A·B`, `Aᵀ·B`, `A·Bᵀ`) share one blocked,
//! panel-packed engine (see [`gemm`]):
//!
//! - the right-hand operand is packed once per call into `NR`-wide column
//!   panels (`panel[j/NR][k][j%NR]`), so the micro-kernel streams
//!   contiguous memory regardless of the transpose flavor — `A·Bᵀ`
//!   packs each panel through the same tiled transpose the `Aᵀ·B` lhs
//!   takes and reuses the same inner loop; row tiles sweep inside each
//!   panel, so the panel stays in L1d across them;
//! - the `Aᵀ·B` flavor transposes its *left* operand once per call, in
//!   cache-sized tiles, into thread-local row-major scratch and runs the
//!   `A·B` tiles on that: one micro-kernel serves all three flavors, and
//!   the lhs is streamed along rows instead of strided by the full row
//!   length per `k` step;
//! - the micro-kernel computes an `MR×NR` register tile with explicit
//!   `f32::mul_add` (FMA), accumulating over `k` in ascending order so
//!   results are **bit-identical for every blocking/threading
//!   configuration**;
//! - large products split their *output row range* across threads with
//!   `std::thread::scope`; each thread owns a disjoint row panel, so the
//!   reduction order never changes — seeded runs stay bit-reproducible at
//!   any thread count;
//! - pack buffers live in thread-local scratch reused across calls:
//!   steady-state GEMM performs **zero heap allocation** when callers use
//!   the `*_into` variants.
//!
//! The seed's naive kernels are retained in `matrix::reference` (under
//! `cfg(test)`) as the test oracle the blocked kernels are compared
//! against.

use serde::{Deserialize, Serialize};

/// A dense, row-major `f32` matrix.
///
/// Rows index samples and columns index features throughout this workspace.
///
/// # Examples
///
/// ```
/// use flips_ml::Matrix;
/// let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
/// assert_eq!(m.shape(), (2, 2));
/// assert_eq!(m[(1, 0)], 3.0);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Creates a `rows × cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Creates a `rows × cols` matrix filled with `value`.
    pub fn filled(rows: usize, cols: usize, value: f32) -> Self {
        Matrix { rows, cols, data: vec![value; rows * cols] }
    }

    /// Creates a matrix from a flat row-major buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "buffer length {} does not match {rows}x{cols}",
            data.len()
        );
        Matrix { rows, cols, data }
    }

    /// Creates a matrix from a slice of equal-length rows.
    ///
    /// # Panics
    ///
    /// Panics if the rows are ragged or `rows` is empty.
    pub fn from_rows(rows: &[Vec<f32>]) -> Self {
        assert!(!rows.is_empty(), "from_rows requires at least one row");
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "ragged rows in from_rows");
            data.extend_from_slice(r);
        }
        Matrix { rows: rows.len(), cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// The underlying row-major buffer.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable access to the underlying row-major buffer.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Reshapes in place to `rows × cols`, reusing the existing capacity.
    ///
    /// Contents after the call are unspecified (workspace buffers call
    /// this before being overwritten). No allocation occurs once the
    /// backing buffer has grown to its steady-state size.
    pub fn resize(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.resize(rows * cols, 0.0);
    }

    /// Grows the backing buffer to hold `rows × cols` values without
    /// changing the shape or contents; a no-op once it can.
    pub fn reserve(&mut self, rows: usize, cols: usize) {
        self.data.reserve_exact((rows * cols).saturating_sub(self.data.len()));
    }

    /// Borrows row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    pub fn row(&self, r: usize) -> &[f32] {
        assert!(r < self.rows, "row {r} out of bounds ({} rows)", self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrows row `r` as a slice.
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        assert!(r < self.rows, "row {r} out of bounds ({} rows)", self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Iterator over rows as slices.
    pub fn rows_iter(&self) -> impl Iterator<Item = &[f32]> {
        self.data.chunks_exact(self.cols)
    }

    /// Builds a new matrix from a subset of this matrix's rows.
    pub fn select_rows(&self, indices: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(indices.len(), self.cols);
        self.select_rows_into(indices, &mut out);
        out
    }

    /// Copies a subset of rows into a caller-owned matrix (resized as
    /// needed; allocation-free once `out` has warmed up).
    pub fn select_rows_into(&self, indices: &[usize], out: &mut Matrix) {
        out.resize(indices.len(), self.cols);
        for (i, &r) in indices.iter().enumerate() {
            let src = self.row(r);
            out.row_mut(i).copy_from_slice(src);
        }
    }

    /// Matrix product `self × rhs`.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols != rhs.rows`.
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        self.matmul_into(rhs, &mut out);
        out
    }

    /// `self × rhs` written into a caller-owned matrix (resized as
    /// needed).
    pub fn matmul_into(&self, rhs: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.cols, rhs.rows,
            "matmul: {}x{} . {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        out.resize(self.rows, rhs.cols);
        gemm::gemm(
            gemm::Layout::Nn,
            self.rows,
            self.cols,
            rhs.cols,
            &self.data,
            self.cols,
            &rhs.data,
            rhs.cols,
            &mut out.data,
        );
    }

    /// `selfᵀ × rhs` without allocating the transpose.
    pub fn matmul_tn(&self, rhs: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.cols, rhs.cols);
        self.matmul_tn_into(rhs, &mut out);
        out
    }

    /// `selfᵀ × rhs` written into a caller-owned matrix.
    pub fn matmul_tn_into(&self, rhs: &Matrix, out: &mut Matrix) {
        out.resize(self.cols, rhs.cols);
        self.matmul_tn_into_slice(rhs, &mut out.data);
    }

    /// `selfᵀ × rhs` written into a caller-owned flat buffer of length
    /// `self.cols * rhs.cols` (lets backward passes write gradients
    /// straight into their flat-gradient segments).
    ///
    /// # Panics
    ///
    /// Panics on shape or buffer-length mismatch.
    pub fn matmul_tn_into_slice(&self, rhs: &Matrix, out: &mut [f32]) {
        assert_eq!(
            self.rows, rhs.rows,
            "matmul_tn: ({}x{})^T . {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        assert_eq!(out.len(), self.cols * rhs.cols, "matmul_tn output length");
        gemm::gemm(
            gemm::Layout::Tn,
            self.cols,
            self.rows,
            rhs.cols,
            &self.data,
            self.cols,
            &rhs.data,
            rhs.cols,
            out,
        );
    }

    /// `self × rhsᵀ` without materializing the transpose.
    pub fn matmul_nt(&self, rhs: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, rhs.rows);
        self.matmul_nt_into(rhs, &mut out);
        out
    }

    /// `self × rhsᵀ` written into a caller-owned matrix.
    pub fn matmul_nt_into(&self, rhs: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.cols, rhs.cols,
            "matmul_nt: {}x{} . ({}x{})^T",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        out.resize(self.rows, rhs.rows);
        gemm::gemm(
            gemm::Layout::Nt,
            self.rows,
            self.cols,
            rhs.rows,
            &self.data,
            self.cols,
            &rhs.data,
            rhs.cols,
            &mut out.data,
        );
    }

    /// Returns the transpose.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        gemm::transpose_into(self.rows, self.cols, &self.data, self.cols, &mut out.data, self.rows);
        out
    }

    /// Adds `bias` (length = cols) to every row in place.
    pub fn add_row_broadcast(&mut self, bias: &[f32]) {
        assert_eq!(bias.len(), self.cols, "broadcast length mismatch");
        for row in self.data.chunks_exact_mut(self.cols) {
            for (x, &b) in row.iter_mut().zip(bias) {
                *x += b;
            }
        }
    }

    /// Element-wise in-place map.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for x in &mut self.data {
            *x = f(*x);
        }
    }

    /// Copies `src`'s contents and shape into `self`, reusing capacity.
    pub fn copy_from(&mut self, src: &Matrix) {
        self.resize(src.rows, src.cols);
        self.data.copy_from_slice(&src.data);
    }

    /// Element-wise addition of `alpha * rhs` into `self`.
    pub fn axpy(&mut self, alpha: f32, rhs: &Matrix) {
        assert_eq!(self.shape(), rhs.shape(), "axpy shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(&rhs.data) {
            *a += alpha * b;
        }
    }

    /// Scales every element by `alpha` in place.
    pub fn scale(&mut self, alpha: f32) {
        for x in &mut self.data {
            *x *= alpha;
        }
    }

    /// Sum of each column (length = cols).
    pub fn col_sums(&self) -> Vec<f32> {
        let mut sums = vec![0.0; self.cols];
        self.col_sums_into(&mut sums);
        sums
    }

    /// Sum of each column written into a caller-owned buffer.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != self.cols`.
    pub fn col_sums_into(&self, out: &mut [f32]) {
        assert_eq!(out.len(), self.cols, "col_sums output length");
        out.fill(0.0);
        for row in self.data.chunks_exact(self.cols) {
            for (s, &x) in out.iter_mut().zip(row) {
                *s += x;
            }
        }
    }

    /// Index of the maximum entry in each row (ties resolve to the first).
    pub fn argmax_rows(&self) -> Vec<usize> {
        self.rows_iter()
            .map(|row| {
                row.iter()
                    .enumerate()
                    .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
                    .map(|(i, _)| i)
                    .unwrap_or(0)
            })
            .collect()
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f32;

    fn index(&self, (r, c): (usize, usize)) -> &f32 {
        assert!(r < self.rows && c < self.cols, "index ({r},{c}) out of bounds");
        &self.data[r * self.cols + c]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f32 {
        assert!(r < self.rows && c < self.cols, "index ({r},{c}) out of bounds");
        &mut self.data[r * self.cols + c]
    }
}

/// The blocked, panel-packed GEMM engine shared by all `matmul*` variants.
pub mod gemm {
    use std::cell::RefCell;

    /// Rows per register micro-tile.
    const MR: usize = 4;
    /// Columns per register micro-tile: two 16-lane `zmm` registers per
    /// row on an AVX-512 host built with `.cargo/config.toml`'s
    /// `target-feature=-prefer-256-bit`, four 8-lane `ymm` ones on AVX2
    /// (and on AVX-512 under `target-cpu=native` alone).
    const NR: usize = 32;
    /// Minimum FLOP count (2·m·k·n) before output rows are split across
    /// scoped threads; below this the spawn cost dominates.
    const PARALLEL_FLOPS: usize = 1 << 23;

    /// Side of the square tiles [`transpose_into`] copies through.
    const TILE: usize = 16;

    thread_local! {
        /// Reusable rhs pack buffer: steady-state GEMM allocates nothing.
        static PACK: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
        /// Reusable lhs scratch: the `Aᵀ·B` flavor's lhs, transposed.
        static LHS: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
        /// Reusable output scratch: a narrow `Aᵀ·B`'s result, transposed.
        static OUT_T: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
    }

    /// Which operand is logically transposed.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum Layout {
        /// `out = A·B` — `A` is `m×k` (lda = k), `B` is `k×n` (ldb = n).
        Nn,
        /// `out = Aᵀ·B` — `A` is `k×m` (lda = m), `B` is `k×n` (ldb = n).
        Tn,
        /// `out = A·Bᵀ` — `A` is `m×k` (lda = k), `B` is `n×k` (ldb = k).
        Nt,
    }

    /// Computes `out = op(A) · op(B)` where `out` is `m×n` and the shared
    /// dimension is `k`, per [`Layout`]. `out` is fully overwritten.
    ///
    /// Accumulation runs over `k` in ascending order for every element,
    /// independent of blocking and threading — bit-reproducible.
    ///
    /// # Panics
    ///
    /// Panics if a leading dimension is shorter than the stored row it
    /// steps over, or slice lengths disagree with the dimensions.
    #[allow(clippy::too_many_arguments)]
    pub fn gemm(
        layout: Layout,
        m: usize,
        k: usize,
        n: usize,
        a: &[f32],
        lda: usize,
        b: &[f32],
        ldb: usize,
        out: &mut [f32],
    ) {
        // (rows, row length) of each operand as stored.
        let ((a_rows, a_row), (b_rows, b_row)) = match layout {
            Layout::Nn => ((m, k), (k, n)),
            Layout::Tn => ((k, m), (k, n)),
            Layout::Nt => ((m, k), (n, k)),
        };
        assert!(lda >= a_row, "gemm {layout:?} m={m} k={k} n={n}: lda {lda} < lhs row {a_row}");
        assert!(ldb >= b_row, "gemm {layout:?} m={m} k={k} n={n}: ldb {ldb} < rhs row {b_row}");
        assert_eq!(a.len(), a_rows * lda, "gemm lhs length");
        assert_eq!(b.len(), b_rows * ldb, "gemm rhs length");
        assert_eq!(out.len(), m * n, "gemm output length");
        if m == 0 || n == 0 {
            return;
        }
        if k == 0 {
            out.fill(0.0);
            return;
        }
        if layout == Layout::Tn && n < NR && m > n {
            // A narrow `Aᵀ·B` fills n of a tile's NR lanes; `(Bᵀ·A)ᵀ` puts
            // the m rows there. Each output is the same ascending-k
            // `mul_add` chain with its multiplicands swapped: equal bits.
            return OUT_T.with(|cell| {
                let mut scratch = cell.borrow_mut();
                let out_t = grown(&mut scratch, m * n);
                gemm(Layout::Tn, n, k, m, b, ldb, a, lda, out_t);
                transpose_into(n, m, out_t, m, out, n);
            });
        }

        PACK.with(|cell| {
            let mut pack = cell.borrow_mut();
            let panels = n.div_ceil(NR);
            let pack = grown(&mut pack, panels * k * NR);
            for p in 0..panels {
                let j0 = p * NR;
                let w = NR.min(n - j0);
                let dst = &mut pack[p * k * NR..(p + 1) * k * NR];
                if w < NR {
                    // Keep tail lanes zeroed so stale values from earlier
                    // calls cannot go subnormal (the lanes are computed,
                    // then discarded).
                    dst.fill(0.0);
                }
                match layout {
                    // B indexed [k][j]: panel[p][kk][jj] = B[kk][p·NR+jj].
                    Layout::Nn | Layout::Tn => {
                        for kk in 0..k {
                            dst[kk * NR..kk * NR + w].copy_from_slice(&b[kk * ldb + j0..][..w]);
                        }
                    }
                    // B indexed [j][k]: the panel is rows j0.. of B, transposed.
                    Layout::Nt => transpose_into(w, k, &b[j0 * ldb..], ldb, dst, NR),
                }
            }

            let threads =
                if 2 * m * k * n >= PARALLEL_FLOPS { crate::parallel::threads(m) } else { 1 };
            let pack: &[f32] = pack;
            LHS.with(|cell| {
                // `Aᵀ·B` is A transposed once into row-major `m×k`
                // scratch, then the `A·B` tiles: each output is the
                // same ascending-k `mul_add` chain either way, and the
                // O(m·k) copy amortizes over the n/NR panel sweeps
                // that stream its rows instead of striding by lda.
                let mut scratch = cell.borrow_mut();
                let (a, lda) = match layout {
                    Layout::Nn | Layout::Nt => (a, lda),
                    Layout::Tn => {
                        let lhs = grown(&mut scratch, m * k);
                        transpose_into(k, m, a, lda, lhs, k);
                        (&*lhs, k)
                    }
                };
                if threads <= 1 {
                    compute_rows_nn(0, m, k, n, a, lda, pack, out);
                } else {
                    // Disjoint row panels per thread: identical
                    // per-element accumulation order at any thread count.
                    crate::parallel::for_each_chunk(out, n, threads, |offset, rows| {
                        compute_rows_nn(offset / n, rows.len() / n, k, n, a, lda, pack, rows);
                    });
                }
            });
        });
    }

    /// The first `len` floats of a grow-only scratch buffer.
    fn grown(buf: &mut Vec<f32>, len: usize) -> &mut [f32] {
        if buf.len() < len {
            buf.resize(len, 0.0);
        }
        &mut buf[..len]
    }

    /// Writes the transpose of the `rows×cols` matrix `src` (row stride
    /// `ld`) into `dst` as a `cols×rows` matrix (row stride `ld_dst`), one
    /// `TILE×TILE` block at a time through a local array: row slices in,
    /// row slices out (about half the time of a per-element strided store).
    pub(super) fn transpose_into(
        rows: usize,
        cols: usize,
        src: &[f32],
        ld: usize,
        dst: &mut [f32],
        ld_dst: usize,
    ) {
        for i0 in (0..rows).step_by(TILE) {
            let h = TILE.min(rows - i0);
            for j0 in (0..cols).step_by(TILE) {
                let w = TILE.min(cols - j0);
                let mut tile = [[0.0f32; TILE]; TILE];
                for (i, row) in tile.iter_mut().enumerate().take(h) {
                    row[..w].copy_from_slice(&src[(i0 + i) * ld + j0..][..w]);
                }
                for j in 0..w {
                    let out = &mut dst[(j0 + j) * ld_dst + i0..][..h];
                    for (x, row) in out.iter_mut().zip(&tile) {
                        *x = row[j];
                    }
                }
            }
        }
    }

    /// Tile sweep over a row-major lhs (`Aᵀ·B` arrives transposed). The
    /// micro-kernel keeps an `MR×NR` accumulator tile in registers, feeds
    /// it with `f32::mul_add` (forcing FMA codegen — rustc does not
    /// contract `a*b + c` on its own), and accumulates `k` in ascending
    /// order so every element's summation order is fixed.
    #[allow(clippy::too_many_arguments)]
    fn compute_rows_nn(
        i0: usize,
        rows: usize,
        k: usize,
        n: usize,
        a: &[f32],
        lda: usize,
        pack: &[f32],
        out: &mut [f32],
    ) {
        // Panels outside, row tiles inside: one `k×NR` panel (32 KB at
        // k = 256) stays in L1d across the row tiles instead of the whole
        // pack streaming from L2 once per tile.
        for (p, panel) in pack.chunks_exact(k * NR).enumerate() {
            let j0 = p * NR;
            let w = NR.min(n - j0);
            for i in (0..rows).step_by(MR) {
                let mr = MR.min(rows - i);
                let mut acc = [[0.0f32; NR]; MR];
                // A rows are contiguous in k; broadcast a[i][k].
                micro_nn(&mut acc, mr, a, lda, i0 + i, k, panel);
                for (ii, acc_row) in acc.iter().enumerate().take(mr) {
                    out[(i + ii) * n + j0..][..w].copy_from_slice(&acc_row[..w]);
                }
            }
        }
    }

    /// The `MR×NR` micro-kernel, shared by every layout.
    #[inline]
    fn micro_nn(
        acc: &mut [[f32; NR]; MR],
        mr: usize,
        a: &[f32],
        lda: usize,
        row0: usize,
        k: usize,
        panel: &[f32],
    ) {
        if mr == MR {
            let a0 = &a[row0 * lda..row0 * lda + k];
            let a1 = &a[(row0 + 1) * lda..(row0 + 1) * lda + k];
            let a2 = &a[(row0 + 2) * lda..(row0 + 2) * lda + k];
            let a3 = &a[(row0 + 3) * lda..(row0 + 3) * lda + k];
            let [acc0, acc1, acc2, acc3] = acc;
            let streams =
                panel.chunks_exact(NR).zip(a0.iter()).zip(a1.iter()).zip(a2.iter()).zip(a3.iter());
            for ((((bv, &x0), &x1), &x2), &x3) in streams {
                for j in 0..NR {
                    acc0[j] = x0.mul_add(bv[j], acc0[j]);
                    acc1[j] = x1.mul_add(bv[j], acc1[j]);
                    acc2[j] = x2.mul_add(bv[j], acc2[j]);
                    acc3[j] = x3.mul_add(bv[j], acc3[j]);
                }
            }
        } else {
            for (ii, acc_row) in acc.iter_mut().enumerate().take(mr) {
                let ar = &a[(row0 + ii) * lda..(row0 + ii) * lda + k];
                for (bv, &aik) in panel.chunks_exact(NR).zip(ar) {
                    for (dst, &bj) in acc_row.iter_mut().zip(bv) {
                        *dst = aik.mul_add(bj, *dst);
                    }
                }
            }
        }
    }
}

/// Euclidean (L2) distance between two equal-length slices.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn euclidean_distance(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "euclidean_distance length mismatch");
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum::<f32>().sqrt()
}

/// Dot product of two equal-length slices.
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "dot length mismatch");
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// L2 norm of a slice.
pub fn l2_norm(a: &[f32]) -> f32 {
    a.iter().map(|x| x * x).sum::<f32>().sqrt()
}

/// The seed's naive triple-loop kernels, retained as the correctness and
/// performance baseline for the blocked engine.
#[cfg(test)]
mod reference {
    use super::gemm::Layout;
    use super::Matrix;

    /// Naive `A·B` (the seed's i-k-j streaming loop).
    pub fn matmul(lhs: &Matrix, rhs: &Matrix) -> Matrix {
        assert_eq!(lhs.cols, rhs.rows, "reference matmul shape");
        let mut out = Matrix::zeros(lhs.rows, rhs.cols);
        gemm_naive(
            Layout::Nn,
            lhs.rows,
            lhs.cols,
            rhs.cols,
            &lhs.data,
            lhs.cols,
            &rhs.data,
            rhs.cols,
            &mut out.data,
        );
        out
    }

    /// Naive `Aᵀ·B`.
    pub fn matmul_tn(lhs: &Matrix, rhs: &Matrix) -> Matrix {
        assert_eq!(lhs.rows, rhs.rows, "reference matmul_tn shape");
        let mut out = Matrix::zeros(lhs.cols, rhs.cols);
        gemm_naive(
            Layout::Tn,
            lhs.cols,
            lhs.rows,
            rhs.cols,
            &lhs.data,
            lhs.cols,
            &rhs.data,
            rhs.cols,
            &mut out.data,
        );
        out
    }

    /// Naive `A·Bᵀ`.
    pub fn matmul_nt(lhs: &Matrix, rhs: &Matrix) -> Matrix {
        assert_eq!(lhs.cols, rhs.cols, "reference matmul_nt shape");
        let mut out = Matrix::zeros(lhs.rows, rhs.rows);
        gemm_naive(
            Layout::Nt,
            lhs.rows,
            lhs.cols,
            rhs.rows,
            &lhs.data,
            lhs.cols,
            &rhs.data,
            rhs.cols,
            &mut out.data,
        );
        out
    }

    /// The seed's loop nests over flat slices.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn gemm_naive(
        layout: Layout,
        m: usize,
        k: usize,
        n: usize,
        a: &[f32],
        lda: usize,
        b: &[f32],
        ldb: usize,
        out: &mut [f32],
    ) {
        out.fill(0.0);
        match layout {
            Layout::Nn => {
                for i in 0..m {
                    let a_row = &a[i * lda..i * lda + k];
                    let out_row = &mut out[i * n..(i + 1) * n];
                    for (kk, &av) in a_row.iter().enumerate() {
                        if av == 0.0 {
                            continue;
                        }
                        let b_row = &b[kk * ldb..kk * ldb + n];
                        for (o, &bv) in out_row.iter_mut().zip(b_row) {
                            *o += av * bv;
                        }
                    }
                }
            }
            Layout::Tn => {
                for r in 0..k {
                    let a_row = &a[r * lda..r * lda + m];
                    let b_row = &b[r * ldb..r * ldb + n];
                    for (i, &av) in a_row.iter().enumerate() {
                        if av == 0.0 {
                            continue;
                        }
                        let out_row = &mut out[i * n..(i + 1) * n];
                        for (o, &bv) in out_row.iter_mut().zip(b_row) {
                            *o += av * bv;
                        }
                    }
                }
            }
            Layout::Nt => {
                for i in 0..m {
                    let a_row = &a[i * lda..i * lda + k];
                    for j in 0..n {
                        let b_row = &b[j * ldb..j * ldb + k];
                        let mut acc = 0.0;
                        for (&av, &bv) in a_row.iter().zip(b_row) {
                            acc += av * bv;
                        }
                        out[i * n + j] = acc;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
impl Matrix {
    /// Capacity of the backing buffer, in values.
    pub(crate) fn capacity(&self) -> usize {
        self.data.capacity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::seeded;
    use proptest::prelude::*;

    #[test]
    fn zeros_has_shape_and_is_zero() {
        let m = Matrix::zeros(3, 4);
        assert_eq!(m.shape(), (3, 4));
        assert!(m.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn from_rows_round_trips_indexing() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        assert_eq!(m[(0, 2)], 3.0);
        assert_eq!(m[(1, 0)], 4.0);
        assert_eq!(m.row(1), &[4.0, 5.0, 6.0]);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn from_rows_rejects_ragged_input() {
        let _ = Matrix::from_rows(&[vec![1.0], vec![1.0, 2.0]]);
    }

    #[test]
    fn matmul_known_product() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let b = Matrix::from_rows(&[vec![5.0, 6.0], vec![7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c.as_slice(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_tn_matches_explicit_transpose() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        let b = Matrix::from_rows(&[vec![1.0, 0.0], vec![0.0, 1.0]]);
        let via_helper = a.matmul_tn(&b);
        let via_transpose = a.transpose().matmul(&b);
        assert_eq!(via_helper, via_transpose);
    }

    #[test]
    fn matmul_nt_matches_explicit_transpose() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let b = Matrix::from_rows(&[vec![5.0, 6.0], vec![7.0, 8.0], vec![9.0, 10.0]]);
        let via_helper = a.matmul_nt(&b);
        let via_transpose = a.matmul(&b.transpose());
        assert_eq!(via_helper, via_transpose);
    }

    /// Deterministic pseudo-random matrix for kernel cross-checks.
    fn patterned(rows: usize, cols: usize, salt: u32) -> Matrix {
        let data: Vec<f32> = (0..rows * cols)
            .map(|i| {
                let h = (i as u32).wrapping_mul(2654435761).wrapping_add(salt);
                ((h >> 16) as f32 / 65536.0) - 0.5
            })
            .collect();
        Matrix::from_vec(rows, cols, data)
    }

    fn assert_close(a: &Matrix, b: &Matrix, tol: f32) {
        assert_eq!(a.shape(), b.shape());
        for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
            assert!((x - y).abs() <= tol, "kernel mismatch: {x} vs {y}");
        }
    }

    fn bits(m: &Matrix) -> Vec<u32> {
        m.as_slice().iter().map(|x| x.to_bits()).collect()
    }

    /// `(m, k, n)` shapes straddling every tile boundary: MR=4, NR=32 and
    /// 16-wide transpose tails, odd dims, tall/wide/degenerate-k cases.
    const SHAPES: [(usize, usize, usize); 9] = [
        (1, 1, 1),
        (3, 5, 7),
        (4, 16, 16),
        (5, 17, 33),
        (8, 1, 31),
        (17, 64, 15),
        (64, 64, 64),
        (33, 129, 65),
        (2, 300, 3),
    ];

    /// The weight-gradient products of one mlp256 minibatch (batch 32):
    /// `(m, k, n)` of each layer's `Xᵀ·δ`.
    const MLP256_BACKWARD: [(usize, usize, usize); 3] =
        [(16, 32, 256), (256, 32, 192), (192, 32, 10)];

    /// The same step's other products: each layer's forward `X·W` (`Nn`)
    /// and the two hidden deltas' `δ·Wᵀ` (`Nt`).
    const MLP256_FORWARD: [(usize, usize, usize); 3] =
        [(32, 16, 256), (32, 256, 192), (32, 192, 10)];
    const MLP256_DELTA: [(usize, usize, usize); 2] = [(32, 10, 192), (32, 192, 256)];

    /// Either side of the narrow `Aᵀ·B` route (`n < NR && m > n`): the
    /// ECG model's classifier gradient (224, 32, 5) and the same with `m`
    /// and `k` swapped, `n` = 1 and 31 (narrow), 32 (not), `m == n` (not
    /// swapped), and a narrow product large enough to split its rows
    /// across threads.
    const NARROW: [(usize, usize, usize); 7] = [
        (224, 32, 5),
        (32, 224, 5),
        (40, 9, 1),
        (40, 9, 31),
        (40, 9, 32),
        (31, 17, 31),
        (4096, 512, 5),
    ];

    #[test]
    fn blocked_kernels_match_reference_across_shapes() {
        for (m, k, n) in SHAPES.into_iter().chain(NARROW) {
            let a = patterned(m, k, 1);
            let b = patterned(k, n, 2);
            assert_close(&a.matmul(&b), &reference::matmul(&a, &b), 1e-4);

            let at = patterned(k, m, 3);
            assert_close(&at.matmul_tn(&b), &reference::matmul_tn(&at, &b), 1e-4);

            let bt = patterned(n, k, 4);
            assert_close(&a.matmul_nt(&bt), &reference::matmul_nt(&a, &bt), 1e-4);
        }
    }

    #[test]
    fn transposed_flavors_are_bit_identical_to_explicit_transposes() {
        // Every flavor computes each output as one ascending-k `mul_add`
        // chain from 0.0, so where a transpose happens may not move a bit.
        // (301, 600, 200) splits its rows across threads when cores allow.
        let mlp256 = MLP256_BACKWARD.into_iter().chain(MLP256_FORWARD).chain(MLP256_DELTA);
        let shapes = SHAPES.into_iter().chain(mlp256).chain(NARROW);
        for (m, k, n) in shapes.chain([(301, 600, 200)]) {
            let at = patterned(k, m, 3);
            let b = patterned(k, n, 2);
            assert_eq!(bits(&at.matmul_tn(&b)), bits(&at.transpose().matmul(&b)), "tn {m}x{k}x{n}");
            let a = patterned(m, k, 1);
            let bt = patterned(n, k, 4);
            assert_eq!(bits(&a.matmul_nt(&bt)), bits(&a.matmul(&bt.transpose())), "nt {m}x{k}x{n}");
        }
    }

    #[test]
    fn gemm_outputs_hold_their_golden_bits() {
        // FNV-1a over the output bits of all three flavors at the mlp256
        // backward shapes. `mul_add` rounds once with or without FMA
        // hardware, so the constant holds under every codegen; moving it
        // moves every training history.
        let mut hash = FNV_OFFSET;
        for (m, k, n) in MLP256_BACKWARD {
            let (a, at) = (patterned(m, k, 1), patterned(k, m, 3));
            let (b, bt) = (patterned(k, n, 2), patterned(n, k, 4));
            for out in [a.matmul(&b), at.matmul_tn(&b), a.matmul_nt(&bt)] {
                hash = fnv1a(hash, &out);
            }
        }
        assert_eq!(hash, 0x4d7f_94ed_7dec_9118, "gemm output bits moved: {hash:#018x}");
    }

    #[test]
    fn mlp256_step_products_hold_their_golden_bits() {
        // The rest of the step: the forward `Nn` and delta `Nt` products.
        let mut hash = FNV_OFFSET;
        for (m, k, n) in MLP256_FORWARD {
            hash = fnv1a(hash, &patterned(m, k, 1).matmul(&patterned(k, n, 2)));
        }
        for (m, k, n) in MLP256_DELTA {
            hash = fnv1a(hash, &patterned(m, k, 1).matmul_nt(&patterned(n, k, 4)));
        }
        assert_eq!(hash, 0xf691_b3dd_da1f_f676, "mlp256 step output bits moved: {hash:#018x}");
    }

    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

    /// Folds `out`'s bits, little-endian, into an FNV-1a hash.
    fn fnv1a(mut hash: u64, out: &Matrix) -> u64 {
        for byte in out.as_slice().iter().flat_map(|x| x.to_bits().to_le_bytes()) {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
        hash
    }

    #[test]
    fn padded_leading_dimensions_match_the_naive_kernels_bit_for_bit() {
        // Quarter-integers in [-2, 2) make every product and partial sum
        // exact, so any summation order gives the same bits; NaN in the
        // padding shows if a kernel reads past a row.
        let padded = |rows: usize, row: usize, ld: usize, salt: u32| -> Vec<f32> {
            let value = |i: usize| {
                let h = (i as u32).wrapping_mul(2654435761).wrapping_add(salt);
                (h >> 28) as f32 / 4.0 - 2.0
            };
            (0..rows * ld).map(|i| if i % ld < row { value(i) } else { f32::NAN }).collect()
        };
        for (m, k, n) in [(5, 17, 33), (33, 129, 65), (40, 9, 5)] {
            for layout in [gemm::Layout::Nn, gemm::Layout::Tn, gemm::Layout::Nt] {
                let ((a_rows, a_row), (b_rows, b_row)) = match layout {
                    gemm::Layout::Nn => ((m, k), (k, n)),
                    gemm::Layout::Tn => ((k, m), (k, n)),
                    gemm::Layout::Nt => ((m, k), (n, k)),
                };
                let (lda, ldb) = (a_row + 3, b_row + 5);
                let (a, b) = (padded(a_rows, a_row, lda, 1), padded(b_rows, b_row, ldb, 2));
                let (mut got, mut want) = (vec![0.0; m * n], vec![0.0; m * n]);
                gemm::gemm(layout, m, k, n, &a, lda, &b, ldb, &mut got);
                reference::gemm_naive(layout, m, k, n, &a, lda, &b, ldb, &mut want);
                let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&got), bits(&want), "{layout:?} {m}x{k}x{n}");
            }
        }
    }

    /// A leading dimension shorter than the row it steps over is refused
    /// up front, not by an index panic inside a micro-kernel.
    #[test]
    #[should_panic(expected = "gemm Nn m=2 k=4 n=3: lda 2 < lhs row 4")]
    fn gemm_refuses_a_short_lda_nn() {
        gemm::gemm(gemm::Layout::Nn, 2, 4, 3, &[0.0; 4], 2, &[0.0; 12], 3, &mut [0.0; 6]);
    }

    #[test]
    #[should_panic(expected = "gemm Tn m=3 k=2 n=2: lda 2 < lhs row 3")]
    fn gemm_refuses_a_short_lda_tn() {
        gemm::gemm(gemm::Layout::Tn, 3, 2, 2, &[0.0; 4], 2, &[0.0; 4], 2, &mut [0.0; 6]);
    }

    #[test]
    #[should_panic(expected = "gemm Nt m=2 k=3 n=2: ldb 2 < rhs row 3")]
    fn gemm_refuses_a_short_ldb_nt() {
        gemm::gemm(gemm::Layout::Nt, 2, 3, 2, &[0.0; 6], 3, &[0.0; 4], 2, &mut [0.0; 4]);
    }

    #[test]
    fn into_variants_reuse_and_resize_output() {
        let a = patterned(9, 12, 5);
        let b = patterned(12, 21, 6);
        let mut out = Matrix::zeros(1, 1);
        a.matmul_into(&b, &mut out);
        assert_eq!(out.shape(), (9, 21));
        assert_close(&out, &reference::matmul(&a, &b), 1e-4);
        // Second call with different shapes reuses the buffer.
        let c = patterned(4, 12, 7);
        c.matmul_into(&b, &mut out);
        assert_eq!(out.shape(), (4, 21));
        assert_close(&out, &reference::matmul(&c, &b), 1e-4);
    }

    #[test]
    fn tn_into_slice_writes_flat_gradient_segment() {
        let a = patterned(10, 6, 8);
        let b = patterned(10, 9, 9);
        let mut buf = vec![0.0f32; 6 * 9];
        a.matmul_tn_into_slice(&b, &mut buf);
        let expect = reference::matmul_tn(&a, &b);
        for (x, y) in buf.iter().zip(expect.as_slice()) {
            assert!((x - y).abs() <= 1e-4);
        }
    }

    #[test]
    fn large_gemm_is_deterministic_across_calls() {
        // Exercises the threaded path (when cores are available) and a
        // long-k accumulation; results must be bit-identical call to call.
        let a = patterned(300, 600, 10);
        let b = patterned(600, 200, 11);
        let first = a.matmul(&b);
        for _ in 0..2 {
            assert_eq!(a.matmul(&b), first);
        }
        assert_close(&first, &reference::matmul(&a, &b), 1e-3);
    }

    #[test]
    fn large_tn_gemm_is_correct_and_deterministic() {
        // Above PARALLEL_FLOPS with an output-row count (301) that is
        // neither a multiple of the tile size nor of any thread count:
        // the shared transposed lhs must hold up across the row split,
        // and repeated calls must be bit-identical.
        let at = patterned(600, 301, 12);
        let b = patterned(600, 200, 13);
        let first = at.matmul_tn(&b);
        for _ in 0..2 {
            assert_eq!(at.matmul_tn(&b), first);
        }
        assert_close(&first, &reference::matmul_tn(&at, &b), 1e-3);
    }

    #[test]
    fn transpose_involution() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn add_row_broadcast_adds_to_every_row() {
        let mut m = Matrix::zeros(2, 3);
        m.add_row_broadcast(&[1.0, 2.0, 3.0]);
        assert_eq!(m.row(0), &[1.0, 2.0, 3.0]);
        assert_eq!(m.row(1), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn col_sums_sums_columns() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        assert_eq!(m.col_sums(), vec![4.0, 6.0]);
    }

    #[test]
    fn argmax_rows_picks_largest() {
        let m = Matrix::from_rows(&[vec![0.1, 0.9], vec![0.8, 0.2]]);
        assert_eq!(m.argmax_rows(), vec![1, 0]);
    }

    #[test]
    fn select_rows_copies_requested_rows() {
        let m = Matrix::from_rows(&[vec![1.0], vec![2.0], vec![3.0]]);
        let s = m.select_rows(&[2, 0]);
        assert_eq!(s.as_slice(), &[3.0, 1.0]);
    }

    #[test]
    fn axpy_and_scale_compose() {
        let mut a = Matrix::filled(1, 2, 1.0);
        let b = Matrix::filled(1, 2, 2.0);
        a.axpy(0.5, &b);
        a.scale(2.0);
        assert_eq!(a.as_slice(), &[4.0, 4.0]);
    }

    #[test]
    fn euclidean_distance_pythagoras() {
        assert!((euclidean_distance(&[0.0, 0.0], &[3.0, 4.0]) - 5.0).abs() < 1e-6);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn blocked_gemm_matches_naive_reference(
            m in 1usize..40,
            k in 1usize..48,
            n in 1usize..70,
            seed in 0u64..1000,
        ) {
            // Random shapes straddling the MR=4 / NR=32 tile boundaries,
            // including tall, wide and non-square cases; the blocked kernels
            // must agree with the retained naive ones within 1e-5 (relative
            // to accumulated magnitude).
            let a = crate::init::gaussian(&mut seeded(seed), m, k, 1.0);
            let b = crate::init::gaussian(&mut seeded(seed ^ 0xA5A5), k, n, 1.0);
            let tol = |x: f32, y: f32| (x - y).abs() <= 1e-5 * (1.0 + x.abs().max(y.abs()));

            let fast = a.matmul(&b);
            let slow = reference::matmul(&a, &b);
            for (x, y) in fast.as_slice().iter().zip(slow.as_slice()) {
                prop_assert!(tol(*x, *y), "nn mismatch {x} vs {y}");
            }

            // Transposed variants share the engine but exercise different
            // packing/streaming paths.
            let at = crate::init::gaussian(&mut seeded(seed ^ 0x1111), k, m, 1.0);
            let fast = at.matmul_tn(&b);
            let slow = reference::matmul_tn(&at, &b);
            for (x, y) in fast.as_slice().iter().zip(slow.as_slice()) {
                prop_assert!(tol(*x, *y), "tn mismatch {x} vs {y}");
            }

            let bt = crate::init::gaussian(&mut seeded(seed ^ 0x2222), n, k, 1.0);
            let fast = a.matmul_nt(&bt);
            let slow = reference::matmul_nt(&a, &bt);
            for (x, y) in fast.as_slice().iter().zip(slow.as_slice()) {
                prop_assert!(tol(*x, *y), "nt mismatch {x} vs {y}");
            }
        }
    }
}
