//! Classification models with flat-parameter access.
//!
//! Two architectures stand in for the paper's GPU models (§4.2):
//!
//! | paper                         | here                      |
//! |-------------------------------|---------------------------|
//! | 1-D CNN (MIT-BIH ECG)         | [`Conv1dNet`]             |
//! | DenseNet-121 (HAM10000)       | [`Mlp`]                   |
//! | LeNet-5 (FEMNIST / Fashion)   | [`Mlp`]                   |
//!
//! A one-layer [`Mlp`] (`dims = [d, c]`) is multinomial logistic
//! regression, `softmax(X·W + b)`, He-initialized.
//!
//! All models expose parameters as a single flat vector so that federated
//! aggregation, FedProx proximal pulls and adaptive server optimizers can
//! operate uniformly (see the crate-level docs).

use crate::activation::{relu_grad_mask_mul, relu_inplace, softmax_rows_inplace};
use crate::init;
use crate::loss::{cross_entropy, cross_entropy_logit_grad_inplace};
use crate::matrix::gemm::{self, Layout};
use crate::matrix::Matrix;
use crate::MlError;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Reusable buffers for forward/backward passes.
///
/// A workspace owns every intermediate the training stack needs —
/// per-layer activations and pre-activations, backprop deltas, the conv
/// feature maps and the flat gradient — sized lazily on first use and
/// reused thereafter. [`Model::reserve_workspace`] states every buffer's
/// size for a batch shape and runs first in each backward pass, so a
/// training loop that keeps one workspace per party performs **zero heap
/// allocation** per minibatch once it has run — which the loop may do
/// ahead of time, on the thread that should own the memory (buffers shrink
/// logically via [`Matrix::resize`], which never releases capacity).
#[derive(Debug, Default)]
pub struct TrainWorkspace {
    /// Post-activation outputs per layer (`acts[l]` for layer `l`).
    acts: Vec<Matrix>,
    /// Pre-activation values per layer (ReLU derivative masks).
    zs: Vec<Matrix>,
    /// Current backprop delta (`dL/dz` of the layer being processed).
    delta: Matrix,
    /// Double buffer for the next layer's delta.
    delta_prev: Matrix,
    /// Conv: ReLU feature maps, a sample's filter `f` at position `p` in
    /// column `p·F′ + f`, `F′` the filter count rounded up to whole lane
    /// blocks (padding zero).
    feats: Matrix,
    /// Conv: the ReLU-masked gradient w.r.t. the maps, laid out like them.
    upstream: Vec<f32>,
    /// Conv: the parameters laid out for the lanes (see
    /// `Conv1dNet::relay_forward`), then the classifier's backward operand.
    relaid: Vec<f32>,
    /// The flat gradient, laid out exactly like [`Model::params`].
    grad: Vec<f32>,
}

/// Grows `buf` to hold `len` values (see [`Matrix::reserve`]).
fn reserve_len(buf: &mut Vec<f32>, len: usize) {
    buf.reserve_exact(len.saturating_sub(buf.len()));
}

impl TrainWorkspace {
    /// An empty workspace; buffers are sized on first use.
    pub fn new() -> Self {
        TrainWorkspace::default()
    }

    /// The gradient produced by the last
    /// [`Model::loss_and_grad_into`] call.
    pub fn grad(&self) -> &[f32] {
        &self.grad
    }

    /// Mutable view of the gradient (e.g. for proximal-term adjustments
    /// applied between backward pass and optimizer step).
    pub fn grad_mut(&mut self) -> &mut [f32] {
        &mut self.grad
    }

    /// Ensures `acts`/`zs` hold at least `layers` buffers.
    fn ensure_layers(&mut self, layers: usize) {
        while self.acts.len() < layers {
            self.acts.push(Matrix::zeros(0, 0));
            self.zs.push(Matrix::zeros(0, 0));
        }
    }
}

/// A supervised classifier trained with softmax cross-entropy.
///
/// Implementations are [`Send`] so parties can train in parallel threads.
pub trait Model: Send {
    /// Total number of scalar parameters.
    fn num_params(&self) -> usize;

    /// Flattens all parameters into one vector (stable, documented order).
    fn params(&self) -> Vec<f32>;

    /// Overwrites all parameters from a flat vector.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::ParamLength`] if the length does not match
    /// [`Model::num_params`].
    fn set_params(&mut self, params: &[f32]) -> Result<(), MlError>;

    /// Class probabilities for a batch (rows = samples).
    fn predict_proba(&self, x: &Matrix) -> Matrix;

    /// Mean cross-entropy loss and flat gradient for a batch.
    ///
    /// Convenience wrapper over [`Model::loss_and_grad_into`] paying one
    /// workspace construction per call; hot loops should hold a
    /// [`TrainWorkspace`] and call the `_into` form directly.
    fn loss_and_grad(&self, x: &Matrix, y: &[usize]) -> (f32, Vec<f32>) {
        let mut ws = TrainWorkspace::new();
        let loss = self.loss_and_grad_into(x, y, &mut ws);
        (loss, ws.grad)
    }

    /// Mean cross-entropy loss for a batch; the flat gradient is left in
    /// `ws.grad()`. Allocation-free once `ws` has been reserved for a
    /// batch at least this large.
    fn loss_and_grad_into(&self, x: &Matrix, y: &[usize], ws: &mut TrainWorkspace) -> f32;

    /// Grows every buffer of `ws` that [`Model::loss_and_grad_into`] fills
    /// to its size for a batch of `rows` samples, without changing shapes
    /// or contents; a no-op once they hold it. The pass calls this first,
    /// so the sizes are written here only.
    fn reserve_workspace(&self, rows: usize, ws: &mut TrainWorkspace);

    /// Number of output classes.
    fn num_classes(&self) -> usize;

    /// Expected input feature dimension.
    fn input_dim(&self) -> usize;

    /// Clones into a boxed trait object.
    fn clone_box(&self) -> Box<dyn Model>;
}

impl Clone for Box<dyn Model> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// Predicted class labels (argmax of probabilities).
pub fn predict(model: &dyn Model, x: &Matrix) -> Vec<usize> {
    model.predict_proba(x).argmax_rows()
}

/// Mean cross-entropy of a model on a labelled batch, without gradients.
pub fn evaluate_loss(model: &dyn Model, x: &Matrix, y: &[usize]) -> f32 {
    cross_entropy(&model.predict_proba(x), y)
}

// ---------------------------------------------------------------------------
// Multi-layer perceptron
// ---------------------------------------------------------------------------

/// A fully-connected network with ReLU hidden activations and a softmax
/// output layer.
///
/// `dims = [in, h1, ..., out]` gives the layer widths. Parameter order:
/// for each layer in sequence, `W` row-major then `b`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Mlp {
    dims: Vec<usize>,
    weights: Vec<Matrix>,
    biases: Vec<Vec<f32>>,
}

impl Mlp {
    /// Creates an MLP with He-initialized weights.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two dims are given, any dim is zero or the
    /// last (the class count) is under two.
    pub fn new<R: Rng + ?Sized>(rng: &mut R, dims: &[usize]) -> Self {
        ModelSpec::Mlp { dims: dims.to_vec() }.validate().expect("MLP widths");
        let mut weights = Vec::new();
        let mut biases = Vec::new();
        for w in dims.windows(2) {
            weights.push(init::he(rng, w[0], w[1]));
            biases.push(vec![0.0; w[1]]);
        }
        Mlp { dims: dims.to_vec(), weights, biases }
    }

    /// Forward pass into workspace buffers: `ws.zs[l]` holds layer `l`'s
    /// pre-activations, `ws.acts[l]` its (ReLU / softmax) outputs. No
    /// input clone, no per-layer allocation after warm-up.
    fn forward_ws(&self, x: &Matrix, ws: &mut TrainWorkspace) {
        let layers = self.weights.len();
        ws.ensure_layers(layers);
        for l in 0..layers {
            let (done, rest) = ws.acts.split_at_mut(l);
            let src: &Matrix = if l == 0 { x } else { &done[l - 1] };
            let z = &mut ws.zs[l];
            src.matmul_into(&self.weights[l], z);
            z.add_row_broadcast(&self.biases[l]);
            let act = &mut rest[0];
            act.copy_from(z);
            if l + 1 < layers {
                relu_inplace(act);
            } else {
                softmax_rows_inplace(act);
            }
        }
    }

    /// Flat-parameter offset of layer `l`'s weight block (its bias block
    /// follows immediately after the weights).
    fn layer_offset(&self, l: usize) -> usize {
        self.dims.windows(2).take(l).map(|w| w[0] * w[1] + w[1]).sum()
    }
}

impl Model for Mlp {
    fn num_params(&self) -> usize {
        self.dims.windows(2).map(|w| w[0] * w[1] + w[1]).sum()
    }

    fn params(&self) -> Vec<f32> {
        let mut p = Vec::with_capacity(self.num_params());
        for (w, b) in self.weights.iter().zip(&self.biases) {
            p.extend_from_slice(w.as_slice());
            p.extend_from_slice(b);
        }
        p
    }

    fn set_params(&mut self, params: &[f32]) -> Result<(), MlError> {
        if params.len() != self.num_params() {
            return Err(MlError::ParamLength { expected: self.num_params(), got: params.len() });
        }
        let mut off = 0;
        for (w, b) in self.weights.iter_mut().zip(&mut self.biases) {
            let wn = w.rows() * w.cols();
            w.as_mut_slice().copy_from_slice(&params[off..off + wn]);
            off += wn;
            let bn = b.len();
            b.copy_from_slice(&params[off..off + bn]);
            off += bn;
        }
        Ok(())
    }

    fn predict_proba(&self, x: &Matrix) -> Matrix {
        let mut ws = TrainWorkspace::new();
        self.forward_ws(x, &mut ws);
        ws.acts.pop().expect("non-empty activations")
    }

    fn loss_and_grad_into(&self, x: &Matrix, y: &[usize], ws: &mut TrainWorkspace) -> f32 {
        self.reserve_workspace(x.rows(), ws);
        self.forward_ws(x, ws);
        let layers = self.weights.len();
        let probs = &ws.acts[layers - 1];
        let loss = cross_entropy(probs, y);

        // delta = dL/dz for the current layer, starting from the output.
        ws.delta.copy_from(probs);
        cross_entropy_logit_grad_inplace(&mut ws.delta, y);

        ws.grad.resize(self.num_params(), 0.0);
        for l in (0..layers).rev() {
            let woff = self.layer_offset(l);
            let wn = self.dims[l] * self.dims[l + 1];
            let bn = self.dims[l + 1];
            let src: &Matrix = if l == 0 { x } else { &ws.acts[l - 1] };
            src.matmul_tn_into_slice(&ws.delta, &mut ws.grad[woff..woff + wn]);
            ws.delta.col_sums_into(&mut ws.grad[woff + wn..woff + wn + bn]);
            if l > 0 {
                ws.delta.matmul_nt_into(&self.weights[l], &mut ws.delta_prev);
                relu_grad_mask_mul(&mut ws.delta_prev, &ws.zs[l - 1]);
                std::mem::swap(&mut ws.delta, &mut ws.delta_prev);
            }
        }
        loss
    }

    fn reserve_workspace(&self, rows: usize, ws: &mut TrainWorkspace) {
        let widths = &self.dims[1..];
        ws.ensure_layers(widths.len());
        for ((z, act), &width) in ws.zs.iter_mut().zip(&mut ws.acts).zip(widths) {
            z.reserve(rows, width);
            act.reserve(rows, width);
        }
        // The two deltas swap at every layer, so each may hold the widest.
        let widest = widths.iter().copied().max().expect("at least one layer");
        ws.delta.reserve(rows, widest);
        ws.delta_prev.reserve(rows, widest);
        reserve_len(&mut ws.grad, self.num_params());
    }

    fn num_classes(&self) -> usize {
        *self.dims.last().expect("non-empty dims")
    }

    fn input_dim(&self) -> usize {
        self.dims[0]
    }

    fn clone_box(&self) -> Box<dyn Model> {
        Box::new(self.clone())
    }
}

// ---------------------------------------------------------------------------
// 1-D convolutional network
// ---------------------------------------------------------------------------

/// Filters per lane block of the maps, and classes per lane block of the
/// logits tile: one 256-bit vector.
const LANES: usize = 8;
/// Positions per forward-conv tile.
const TILE_POSITIONS: usize = 4;
/// Samples per logits tile.
const TILE_ROWS: usize = 8;

/// A small 1-D CNN: single-channel convolution → ReLU → flatten → linear
/// classifier.
///
/// Stand-in for the paper's ECG 1-D CNN. The input row of length `len` is
/// treated as a signal; `filters` kernels of width `kernel` slide with
/// stride 1 over it (valid padding), and the full `filters × positions`
/// activation map feeds the classifier (no pooling — position information
/// is retained, which matters for the synthetic class geometry this
/// reproduction trains on).
///
/// Parameter order: kernels row-major (`filters × kernel`), kernel biases
/// (`filters`), classifier `W` row-major (`filters·positions × classes`),
/// classifier bias (`classes`).
///
/// The maps are kept position-major with the filters in vector lanes
/// (`[p·F′ + f]`, `F′` the filter count rounded up to eight), and every
/// pass is written against that layout, bit for bit the scalar loops over
/// filter-major maps (`[f·P + p]`): the forward conv per sample, tile of
/// positions and block of eight filters, the logits per tile of samples ×
/// eight classes, and the kernel gradient per block of eight filters and
/// tap, one chain over (sample, position) in order. Each conv term is a
/// rounded product then an add — `f32::mul_add` would round once and move
/// every gradient; the classifier's sums are the `mul_add` chains
/// [`Matrix::matmul`] computes.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Conv1dNet {
    len: usize,
    kernel: usize,
    filters: usize,
    classes: usize,
    kernels: Matrix,
    kbias: Vec<f32>,
    w: Matrix,
    b: Vec<f32>,
}

impl Conv1dNet {
    /// Creates the network.
    ///
    /// # Panics
    ///
    /// Panics if `kernel > len` or any size is zero.
    pub fn new<R: Rng + ?Sized>(
        rng: &mut R,
        len: usize,
        kernel: usize,
        filters: usize,
        classes: usize,
    ) -> Self {
        ModelSpec::Conv1d { len, kernel, filters, classes }.validate().expect("conv1d sizes");
        let positions = len - kernel + 1;
        Conv1dNet {
            len,
            kernel,
            filters,
            classes,
            kernels: init::he(rng, kernel, filters).transpose(), // filters × kernel
            kbias: vec![0.0; filters],
            w: init::xavier(rng, filters * positions, classes),
            b: vec![0.0; classes],
        }
    }

    fn out_positions(&self) -> usize {
        self.len - self.kernel + 1
    }

    fn feature_dim(&self) -> usize {
        self.filters * self.out_positions()
    }

    /// `F′`: the filter count rounded up to whole lane blocks.
    fn lane_width(&self) -> usize {
        self.filters.next_multiple_of(LANES)
    }

    /// One sample's maps, padding included: `P·F′`.
    fn map_dim(&self) -> usize {
        self.out_positions() * self.lane_width()
    }

    /// `C′`: the class count rounded up to whole lane blocks.
    fn class_width(&self) -> usize {
        self.classes.next_multiple_of(LANES)
    }

    /// Length of the conv's biases and taps as
    /// [`Conv1dNet::relay_forward`] lays them out.
    fn conv_len(&self) -> usize {
        (1 + self.kernel) * self.lane_width()
    }

    /// Length of the tables [`Conv1dNet::relay_forward`] writes.
    fn forward_len(&self) -> usize {
        self.conv_len() + self.feature_dim() * self.class_width()
    }

    /// Lays out what the forward pass reads in `relaid`, padding zero: the
    /// kernel biases at `[f]`, every filter's tap `j` at `[(1 + j)·F′ + f]`,
    /// then the classifier row `k` at `[(1 + kernel)·F′ + k·C′ + c]`.
    fn relay_forward(&self, relaid: &mut Vec<f32>) {
        let width = self.lane_width();
        relaid.clear();
        relaid.resize(self.forward_len(), 0.0);
        let (conv, classifier) = relaid.split_at_mut(self.conv_len());
        conv[..self.filters].copy_from_slice(&self.kbias);
        for (f, kernel) in self.kernels.rows_iter().enumerate() {
            for (j, &kj) in kernel.iter().enumerate() {
                conv[(1 + j) * width + f] = kj;
            }
        }
        for (dst, w) in classifier.chunks_exact_mut(self.class_width()).zip(self.w.rows_iter()) {
            dst[..self.classes].copy_from_slice(w);
        }
    }

    /// Lays out the parameters, computes the batch's maps into `ws.feats`
    /// and leaves the logits in `ws.delta`. Allocation-free once `ws` has
    /// been reserved for the batch.
    fn forward_into(&self, x: &Matrix, ws: &mut TrainWorkspace) {
        self.relay_forward(&mut ws.relaid);
        self.features_into(x, ws);
        let rows = x.rows();
        ws.delta.resize(rows, self.classes);
        let whole = rows - rows % TILE_ROWS;
        for i in (0..whole).step_by(TILE_ROWS) {
            self.logit_tile::<TILE_ROWS>(i, ws);
        }
        for i in whole..rows {
            self.logit_tile::<1>(i, ws);
        }
    }

    /// The ReLU feature maps into `ws.feats`. A map is positive exactly
    /// where its pre-activation is, so the maps are also the backward
    /// pass's ReLU mask; padding lanes are `+0.0`.
    fn features_into(&self, x: &Matrix, ws: &mut TrainWorkspace) {
        assert_eq!(x.cols(), self.len, "conv1d input length mismatch");
        let (positions, dim) = (self.out_positions(), self.map_dim());
        let conv = &ws.relaid[..self.conv_len()];
        ws.feats.resize(x.rows(), dim);
        let whole = positions - positions % TILE_POSITIONS;
        for (signal, row) in x.rows_iter().zip(ws.feats.as_mut_slice().chunks_exact_mut(dim)) {
            for p in (0..whole).step_by(TILE_POSITIONS) {
                self.conv_tile::<TILE_POSITIONS>(signal, p, conv, row);
            }
            for p in whole..positions {
                self.conv_tile::<1>(signal, p, conv, row);
            }
        }
    }

    /// One sample's maps at positions `p0..p0 + Q` into its `row`, a lane
    /// block of eight filters at a time: each output is `bias + k₀·s[p] +
    /// k₁·s[p+1] + …` in tap order, then its ReLU. The `Q` positions are
    /// independent chains, which the core overlaps.
    fn conv_tile<const Q: usize>(&self, signal: &[f32], p0: usize, conv: &[f32], row: &mut [f32]) {
        let width = self.lane_width();
        let (bias, taps) = conv.split_at(width);
        for f0 in (0..width).step_by(LANES) {
            let start: [f32; LANES] = bias[f0..f0 + LANES].try_into().expect("a lane block");
            let mut acc = [start; Q];
            for (j, tap) in taps.chunks_exact(width).enumerate() {
                let k = &tap[f0..f0 + LANES];
                let s: [f32; Q] = std::array::from_fn(|q| signal[p0 + q + j]);
                acc = std::array::from_fn(|q| std::array::from_fn(|l| acc[q][l] + k[l] * s[q]));
            }
            for (q, lanes) in acc.iter().enumerate() {
                let dst = &mut row[(p0 + q) * width + f0..][..LANES];
                dst.copy_from_slice(&lanes.map(|v| v.max(0.0)));
            }
        }
    }

    /// Logits of samples `i0..i0 + R` into `ws.delta`, eight classes at a
    /// time: each is the `mul_add` chain from `0.0` over `k = f·P + p` in
    /// ascending order that `A·B` computes on filter-major maps, then `+ b`.
    fn logit_tile<const R: usize>(&self, i0: usize, ws: &mut TrainWorkspace) {
        let (positions, width, cwidth) =
            (self.out_positions(), self.lane_width(), self.class_width());
        let classifier = &ws.relaid[self.conv_len()..self.forward_len()];
        let maps: [&[f32]; R] = std::array::from_fn(|r| ws.feats.row(i0 + r));
        for c0 in (0..self.classes).step_by(LANES) {
            // Array-valued accumulators: the form that keeps the chains
            // in vector registers across the two loops.
            let mut acc = [[0.0f32; LANES]; R];
            for (f, block) in classifier.chunks_exact(positions * cwidth).enumerate() {
                for (p, row) in block.chunks_exact(cwidth).enumerate() {
                    let w = &row[c0..c0 + LANES];
                    let x: [f32; R] = std::array::from_fn(|r| maps[r][p * width + f]);
                    acc = std::array::from_fn(|r| {
                        std::array::from_fn(|l| x[r].mul_add(w[l], acc[r][l]))
                    });
                }
            }
            let live = LANES.min(self.classes - c0);
            for (r, lanes) in acc.iter().enumerate() {
                let dst = &mut ws.delta.row_mut(i0 + r)[c0..c0 + live];
                for ((z, &v), &b) in dst.iter_mut().zip(lanes).zip(&self.b[c0..]) {
                    *z = v + b;
                }
            }
        }
    }

    /// The gradient w.r.t. the maps into `ws.upstream`, laid out like them:
    /// `δ·M` with `M[c][p·F′ + f] = W[f·P + p][c]` laid out behind the
    /// forward tables (padding zero), so each value is the ascending-class
    /// `mul_add` chain `δ·Wᵀ` computes. Zeroed wherever the map is not
    /// positive, padding lanes included.
    fn upstream_into(&self, ws: &mut TrainWorkspace) {
        let (positions, width, dim) = (self.out_positions(), self.lane_width(), self.map_dim());
        let front = self.forward_len();
        ws.relaid.resize(front + self.classes * dim, 0.0);
        let m = &mut ws.relaid[front..];
        for (f, block) in self.w.as_slice().chunks_exact(positions * self.classes).enumerate() {
            for (p, w) in block.chunks_exact(self.classes).enumerate() {
                for (c, &v) in w.iter().enumerate() {
                    m[c * dim + p * width + f] = v;
                }
            }
        }
        let (rows, c) = (ws.delta.rows(), self.classes);
        ws.upstream.resize(rows * dim, 0.0);
        gemm::gemm(Layout::Nn, rows, c, dim, ws.delta.as_slice(), c, m, dim, &mut ws.upstream);
        mask_upstream(ws.feats.as_slice(), &mut ws.upstream);
    }

    /// Classifier gradients into their flat segments: `δᵀ·maps` into the
    /// slot behind the forward tables, whose `M` [`Conv1dNet::upstream_into`]
    /// has used — each value the ascending-sample `mul_add` chain
    /// `mapsᵀ·δ` computes, multiplicands swapped — then scattered to `W`'s
    /// order; the bias gradient is `δ`'s column sums.
    fn classifier_grad_into(&self, ws: &mut TrainWorkspace) {
        let (positions, width, dim) = (self.out_positions(), self.lane_width(), self.map_dim());
        let scratch = &mut ws.relaid[self.forward_len()..];
        ws.delta.matmul_tn_into_slice(&ws.feats, scratch);
        let woff = self.filters * self.kernel + self.filters;
        let (dw, db) = ws.grad[woff..].split_at_mut(self.feature_dim() * self.classes);
        for (c, grad) in scratch.chunks_exact(dim).enumerate() {
            for (p, cell) in grad.chunks_exact(width).enumerate() {
                for (f, &g) in cell[..self.filters].iter().enumerate() {
                    dw[(f * positions + p) * self.classes + c] = g;
                }
            }
        }
        ws.delta.col_sums_into(db);
    }

    /// Kernel and kernel-bias gradients into the front of `ws.grad`. A term
    /// is `u·s` if the masked upstream `u != 0`, else `+0.0`, which leaves a
    /// sum started at `+0.0` as it was (only `−0 + −0` rounds to `−0.0`) and
    /// never multiplies a non-finite signal value seen only where inactive.
    fn kernel_grad_into(&self, x: &Matrix, ws: &mut TrainWorkspace) {
        let (positions, width) = (self.out_positions(), self.lane_width());
        let upstream = &ws.upstream;
        let (dkernels, dkbias) = ws.grad.split_at_mut(self.filters * self.kernel);
        for f0 in (0..self.filters).step_by(LANES) {
            let live = LANES.min(self.filters - f0);
            for j in 0..self.kernel {
                // The bias sum is an independent chain riding along every
                // tap's pass: no extra latency, and each pass leaves it equal.
                let (mut acc, mut bias) = ([0.0f32; LANES], [0.0f32; LANES]);
                for (signal, block) in x.rows_iter().zip(upstream.chunks_exact(positions * width)) {
                    let cells = block.chunks_exact(width);
                    for (&s, cell) in signal[j..j + positions].iter().zip(cells) {
                        let lanes = &cell[f0..f0 + LANES];
                        for ((a, b), &u) in acc.iter_mut().zip(&mut bias).zip(lanes) {
                            *a += if u != 0.0 { u * s } else { 0.0 };
                            *b += u;
                        }
                    }
                }
                for (l, &a) in acc[..live].iter().enumerate() {
                    dkernels[(f0 + l) * self.kernel + j] = a;
                }
                dkbias[f0..f0 + live].copy_from_slice(&bias[..live]);
            }
        }
    }
}

/// Zeroes the upstream wherever its map is not positive (NaN included).
fn mask_upstream(feats: &[f32], upstream: &mut [f32]) {
    for (u, &active) in upstream.iter_mut().zip(feats) {
        *u = if active > 0.0 { *u } else { 0.0 };
    }
}

impl Model for Conv1dNet {
    fn num_params(&self) -> usize {
        self.filters * self.kernel + self.filters + self.feature_dim() * self.classes + self.classes
    }

    fn params(&self) -> Vec<f32> {
        let mut p = Vec::with_capacity(self.num_params());
        p.extend_from_slice(self.kernels.as_slice());
        p.extend_from_slice(&self.kbias);
        p.extend_from_slice(self.w.as_slice());
        p.extend_from_slice(&self.b);
        p
    }

    fn set_params(&mut self, params: &[f32]) -> Result<(), MlError> {
        if params.len() != self.num_params() {
            return Err(MlError::ParamLength { expected: self.num_params(), got: params.len() });
        }
        let mut off = 0;
        let kn = self.filters * self.kernel;
        self.kernels.as_mut_slice().copy_from_slice(&params[off..off + kn]);
        off += kn;
        self.kbias.copy_from_slice(&params[off..off + self.filters]);
        off += self.filters;
        let wn = self.feature_dim() * self.classes;
        self.w.as_mut_slice().copy_from_slice(&params[off..off + wn]);
        off += wn;
        self.b.copy_from_slice(&params[off..]);
        Ok(())
    }

    fn predict_proba(&self, x: &Matrix) -> Matrix {
        let mut ws = TrainWorkspace::new();
        self.forward_into(x, &mut ws);
        softmax_rows_inplace(&mut ws.delta);
        ws.delta
    }

    fn loss_and_grad_into(&self, x: &Matrix, y: &[usize], ws: &mut TrainWorkspace) -> f32 {
        self.reserve_workspace(x.rows(), ws);
        self.forward_into(x, ws);
        softmax_rows_inplace(&mut ws.delta);
        let loss = cross_entropy(&ws.delta, y);
        cross_entropy_logit_grad_inplace(&mut ws.delta, y);

        ws.grad.resize(self.num_params(), 0.0);
        // The classifier gradient reuses the slot `M` held: upstream first.
        self.upstream_into(ws);
        self.classifier_grad_into(ws);
        self.kernel_grad_into(x, ws);
        loss
    }

    fn reserve_workspace(&self, rows: usize, ws: &mut TrainWorkspace) {
        ws.feats.reserve(rows, self.map_dim());
        ws.delta.reserve(rows, self.classes);
        reserve_len(&mut ws.upstream, rows * self.map_dim());
        reserve_len(&mut ws.relaid, self.forward_len() + self.classes * self.map_dim());
        reserve_len(&mut ws.grad, self.num_params());
    }

    fn num_classes(&self) -> usize {
        self.classes
    }

    fn input_dim(&self) -> usize {
        self.len
    }

    fn clone_box(&self) -> Box<dyn Model> {
        Box::new(self.clone())
    }
}

// ---------------------------------------------------------------------------
// Model specification (architecture sans weights)
// ---------------------------------------------------------------------------

/// A serializable architecture description.
///
/// FL parties must all build the *same* architecture; the aggregator ships a
/// `ModelSpec` during job negotiation (paper §2: "agreeing on ... model
/// architecture") and each party instantiates it locally.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum ModelSpec {
    /// Fully-connected network; `dims = [in, h1, ..., out]` (`[in, out]`
    /// is multinomial logistic regression).
    Mlp {
        /// Layer widths.
        dims: Vec<usize>,
    },
    /// 1-D CNN (see [`Conv1dNet`]).
    Conv1d {
        /// Signal length.
        len: usize,
        /// Kernel width.
        kernel: usize,
        /// Number of filters.
        filters: usize,
        /// Number of classes.
        classes: usize,
    },
}

impl ModelSpec {
    /// Refuses, as [`MlError::InvalidHyperparameter`] rather than the panic
    /// its constructor raises in [`ModelSpec::build`], a spec with a zero
    /// size, under two classes or MLP widths, or a kernel over the signal.
    pub fn validate(&self) -> Result<(), MlError> {
        let buildable = match self {
            ModelSpec::Mlp { dims } => {
                dims.len() >= 2 && !dims.contains(&0) && dims.last().is_some_and(|&c| c >= 2)
            }
            ModelSpec::Conv1d { len, kernel, filters, classes } => {
                (1..=*len).contains(kernel) && *filters > 0 && *classes >= 2
            }
        };
        if buildable {
            return Ok(());
        }
        Err(MlError::InvalidHyperparameter(format!("cannot build {self:?}")))
    }

    /// Instantiates the architecture with fresh weights from `rng`.
    pub fn build<R: Rng + ?Sized>(&self, rng: &mut R) -> Box<dyn Model> {
        match self {
            ModelSpec::Mlp { dims } => Box::new(Mlp::new(rng, dims)),
            ModelSpec::Conv1d { len, kernel, filters, classes } => {
                Box::new(Conv1dNet::new(rng, *len, *kernel, *filters, *classes))
            }
        }
    }

    /// Parameter count: `build(rng).num_params()`, by arithmetic.
    pub fn num_params(&self) -> usize {
        match self {
            ModelSpec::Mlp { dims } => dims.windows(2).map(|w| w[0] * w[1] + w[1]).sum(),
            ModelSpec::Conv1d { len, kernel, filters, classes } => {
                filters * (kernel + 1) + (filters * (len + 1).saturating_sub(*kernel) + 1) * classes
            }
        }
    }

    /// Number of output classes of the architecture.
    pub fn num_classes(&self) -> usize {
        match self {
            ModelSpec::Mlp { dims } => *dims.last().expect("non-empty dims"),
            ModelSpec::Conv1d { classes, .. } => *classes,
        }
    }

    /// Input feature dimension of the architecture.
    pub fn input_dim(&self) -> usize {
        match self {
            ModelSpec::Mlp { dims } => dims[0],
            ModelSpec::Conv1d { len, .. } => *len,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::seeded;

    /// Central-difference gradient check: every analytic partial must agree
    /// with the numeric estimate to a mixed absolute/relative tolerance.
    fn check_gradients(model: &mut dyn Model, x: &Matrix, y: &[usize]) {
        let (_, grad) = model.loss_and_grad(x, y);
        let base = model.params();
        let eps = 1e-3f32;
        for i in 0..base.len() {
            let mut plus = base.clone();
            plus[i] += eps;
            model.set_params(&plus).unwrap();
            let lp = evaluate_loss(model, x, y);
            let mut minus = base.clone();
            minus[i] -= eps;
            model.set_params(&minus).unwrap();
            let lm = evaluate_loss(model, x, y);
            let numeric = (lp - lm) / (2.0 * eps);
            let analytic = grad[i];
            let tol = 1e-2 * (1.0 + analytic.abs().max(numeric.abs()));
            assert!(
                (numeric - analytic).abs() < tol,
                "param {i}: numeric {numeric} vs analytic {analytic}"
            );
        }
        model.set_params(&base).unwrap();
    }

    fn tiny_batch(dim: usize, classes: usize, n: usize) -> (Matrix, Vec<usize>) {
        let mut rng = seeded(99);
        let x = init::gaussian(&mut rng, n, dim, 1.0);
        let y: Vec<usize> = (0..n).map(|i| i % classes).collect();
        (x, y)
    }

    #[test]
    fn single_layer_mlp_gradient_check() {
        let mut rng = seeded(1);
        let mut m = Mlp::new(&mut rng, &[5, 3]);
        let (x, y) = tiny_batch(5, 3, 7);
        check_gradients(&mut m, &x, &y);
    }

    #[test]
    fn one_layer_mlp_is_multinomial_logistic_regression() {
        // softmax(X·W + b) and its gradient [Xᵀ·δ ‖ col_sums(δ)], δ the
        // logit gradient, built by hand from the model's own parameters
        // (`W` row-major, then `b`).
        let (d, c) = (7, 4);
        let m = Mlp::new(&mut seeded(11), &[d, c]);
        let (x, y) = tiny_batch(d, c, 13);
        let params = m.params();
        let (w, b) = params.split_at(d * c);
        let mut probs = x.matmul(&Matrix::from_vec(d, c, w.to_vec()));
        probs.add_row_broadcast(b);
        softmax_rows_inplace(&mut probs);
        let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(m.predict_proba(&x).as_slice()), bits(probs.as_slice()));

        let (loss, grad) = m.loss_and_grad(&x, &y);
        assert_eq!(loss.to_bits(), cross_entropy(&probs, &y).to_bits());
        let mut delta = probs;
        cross_entropy_logit_grad_inplace(&mut delta, &y);
        let mut want = vec![0.0; d * c + c];
        x.matmul_tn_into_slice(&delta, &mut want[..d * c]);
        delta.col_sums_into(&mut want[d * c..]);
        assert_eq!(bits(&grad), bits(&want));
    }

    #[test]
    fn mlp_gradient_check() {
        let mut rng = seeded(2);
        let mut m = Mlp::new(&mut rng, &[4, 6, 3]);
        let (x, y) = tiny_batch(4, 3, 5);
        check_gradients(&mut m, &x, &y);
    }

    #[test]
    fn deep_mlp_gradient_check() {
        let mut rng = seeded(3);
        let mut m = Mlp::new(&mut rng, &[3, 5, 4, 3]);
        let (x, y) = tiny_batch(3, 3, 6);
        check_gradients(&mut m, &x, &y);
    }

    #[test]
    fn conv1d_gradient_check() {
        let mut rng = seeded(4);
        let mut m = Conv1dNet::new(&mut rng, 10, 3, 4, 3);
        let (x, y) = tiny_batch(10, 3, 5);
        check_gradients(&mut m, &x, &y);
    }

    #[test]
    fn params_set_params_round_trip() {
        let mut rng = seeded(5);
        for mut model in [
            Box::new(Mlp::new(&mut rng, &[6, 4])) as Box<dyn Model>,
            Box::new(Mlp::new(&mut rng, &[6, 8, 4])),
            Box::new(Conv1dNet::new(&mut rng, 12, 3, 5, 4)),
        ] {
            let p = model.params();
            assert_eq!(p.len(), model.num_params());
            let mut altered = p.clone();
            for v in &mut altered {
                *v += 1.0;
            }
            model.set_params(&altered).unwrap();
            assert_eq!(model.params(), altered);
            model.set_params(&p).unwrap();
            assert_eq!(model.params(), p);
        }
    }

    #[test]
    fn set_params_rejects_wrong_length() {
        let mut rng = seeded(6);
        let mut m = Mlp::new(&mut rng, &[3, 2]);
        let err = m.set_params(&[0.0; 3]).unwrap_err();
        assert_eq!(err, MlError::ParamLength { expected: 8, got: 3 });
    }

    #[test]
    fn predict_proba_rows_are_distributions() {
        let mut rng = seeded(7);
        let m = Mlp::new(&mut rng, &[4, 5, 3]);
        let (x, _) = tiny_batch(4, 3, 9);
        let p = m.predict_proba(&x);
        assert_eq!(p.shape(), (9, 3));
        for row in p.rows_iter() {
            assert!((row.iter().sum::<f32>() - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn sgd_training_reduces_loss_and_learns_separable_data() {
        // Two well-separated Gaussian blobs; a one-layer MLP (logistic
        // regression) must fit.
        let mut rng = seeded(8);
        let n = 100;
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for i in 0..n {
            let cls = i % 2;
            let center = if cls == 0 { -2.0 } else { 2.0 };
            rows.push(vec![
                crate::rng::normal(&mut rng, center, 0.5) as f32,
                crate::rng::normal(&mut rng, -center, 0.5) as f32,
            ]);
            y.push(cls);
        }
        let x = Matrix::from_rows(&rows);
        let mut model = Mlp::new(&mut rng, &[2, 2]);
        let mut opt = crate::optimizer::Sgd::new(0.5);
        let initial = evaluate_loss(&model, &x, &y);
        for _ in 0..100 {
            let (_, grad) = model.loss_and_grad(&x, &y);
            let mut p = model.params();
            opt.step(&mut p, &grad);
            model.set_params(&p).unwrap();
        }
        let fin = evaluate_loss(&model, &x, &y);
        assert!(fin < initial * 0.2, "loss {initial} -> {fin}");
        let preds = predict(&model, &x);
        let correct = preds.iter().zip(&y).filter(|(a, b)| a == b).count();
        assert!(correct as f32 / n as f32 > 0.95);
    }

    #[test]
    fn model_spec_builds_matching_architecture() {
        let mut rng = seeded(9);
        let spec = ModelSpec::Mlp { dims: vec![10, 16, 5] };
        let m = spec.build(&mut rng);
        assert_eq!(m.num_classes(), 5);
        assert_eq!(m.input_dim(), 10);
        assert_eq!(spec.num_classes(), 5);
        assert_eq!(spec.input_dim(), 10);
    }

    #[test]
    fn model_spec_refuses_what_it_cannot_build() {
        let conv =
            |len, kernel, filters, classes| ModelSpec::Conv1d { len, kernel, filters, classes };
        for spec in [
            ModelSpec::Mlp { dims: vec![0, 3] },
            ModelSpec::Mlp { dims: vec![4] },
            ModelSpec::Mlp { dims: vec![4, 0, 3] },
            ModelSpec::Mlp { dims: vec![4, 6, 1] },
            ModelSpec::Mlp { dims: vec![4, 1] },
            conv(32, 0, 8, 5),
            conv(32, 33, 8, 5),
            conv(32, 5, 0, 5),
            conv(32, 5, 8, 1),
        ] {
            assert!(spec.validate().is_err(), "{spec:?} validated");
        }
        for spec in [
            ModelSpec::Mlp { dims: vec![4, 2] },
            ModelSpec::Mlp { dims: vec![4, 1, 2] },
            conv(5, 5, 1, 2),
        ] {
            assert_eq!(spec.validate(), Ok(()), "{spec:?}");
        }
    }

    #[test]
    fn model_spec_conv_dimensions() {
        let spec = ModelSpec::Conv1d { len: 32, kernel: 5, filters: 8, classes: 5 };
        let mut rng = seeded(10);
        let m = spec.build(&mut rng);
        let positions = 32 - 5 + 1;
        assert_eq!(m.num_params(), 8 * 5 + 8 + 8 * positions * 5 + 5);
    }

    #[test]
    fn spec_param_count_is_the_built_models() {
        let conv =
            |len, kernel, filters, classes| ModelSpec::Conv1d { len, kernel, filters, classes };
        for spec in [
            ModelSpec::Mlp { dims: vec![16, 256, 192, 10] },
            ModelSpec::Mlp { dims: vec![4, 2] },
            conv(32, 5, 8, 5),
            conv(5, 5, 1, 2),
            conv(17, 1, 17, 3),
        ] {
            assert_eq!(spec.num_params(), spec.build(&mut seeded(3)).num_params(), "{spec:?}");
        }
    }

    #[test]
    fn workspace_path_matches_allocating_path() {
        let mut rng = seeded(21);
        let models: Vec<Box<dyn Model>> = vec![
            Box::new(Mlp::new(&mut rng, &[6, 4])),
            Box::new(Mlp::new(&mut rng, &[6, 9, 5, 4])),
            Box::new(Conv1dNet::new(&mut rng, 6, 3, 3, 4)),
        ];
        let (x, y) = tiny_batch(6, 4, 9);
        let mut ws = TrainWorkspace::new();
        for model in &models {
            let (loss_alloc, grad_alloc) = model.loss_and_grad(&x, &y);
            // Run the workspace path twice: the second call reuses warm
            // buffers and must agree exactly.
            for _ in 0..2 {
                let loss_ws = model.loss_and_grad_into(&x, &y, &mut ws);
                assert_eq!(loss_ws, loss_alloc);
                assert_eq!(ws.grad(), grad_alloc.as_slice());
            }
        }
    }

    #[test]
    fn workspace_adapts_to_shrinking_batches() {
        // Last minibatch of an epoch is smaller; buffers must logically
        // shrink and still produce exact results.
        let mut rng = seeded(22);
        let model = Mlp::new(&mut rng, &[5, 7, 3]);
        let mut ws = TrainWorkspace::new();
        let (big_x, big_y) = tiny_batch(5, 3, 12);
        model.loss_and_grad_into(&big_x, &big_y, &mut ws);
        let (small_x, small_y) = tiny_batch(5, 3, 4);
        let loss_ws = model.loss_and_grad_into(&small_x, &small_y, &mut ws);
        let (loss_alloc, grad_alloc) = model.loss_and_grad(&small_x, &small_y);
        assert_eq!(loss_ws, loss_alloc);
        assert_eq!(ws.grad(), grad_alloc.as_slice());
    }

    /// Every buffer's capacity, in a fixed order.
    fn capacities(ws: &TrainWorkspace) -> Vec<usize> {
        let fixed = [&ws.delta, &ws.delta_prev, &ws.feats];
        let matrices = ws.acts.iter().chain(&ws.zs).chain(fixed).map(Matrix::capacity);
        let flat = [&ws.upstream, &ws.relaid, &ws.grad].map(Vec::capacity);
        matrices.chain(flat).collect()
    }

    #[test]
    fn a_reserved_workspace_never_grows() {
        let mut rng = seeded(23);
        let models: Vec<Box<dyn Model>> = vec![
            Box::new(Mlp::new(&mut rng, &[6, 4])),
            Box::new(Mlp::new(&mut rng, &[6, 9, 5, 4])),
            Box::new(Mlp::new(&mut rng, &[6, 3, 11, 4])),
            Box::new(Conv1dNet::new(&mut rng, 6, 3, 11, 4)),
        ];
        for model in &models {
            let mut ws = TrainWorkspace::new();
            model.reserve_workspace(9, &mut ws);
            let reserved = capacities(&ws);
            for rows in [9, 4, 9, 1] {
                let (x, y) = tiny_batch(6, 4, rows);
                model.loss_and_grad_into(&x, &y, &mut ws);
                assert_eq!(capacities(&ws), reserved, "a batch of {rows}");
            }
        }
    }

    #[test]
    fn two_parties_same_seed_build_identical_models() {
        let spec = ModelSpec::Mlp { dims: vec![4, 3] };
        let a = spec.build(&mut seeded(42));
        let b = spec.build(&mut seeded(42));
        assert_eq!(a.params(), b.params());
    }

    // -----------------------------------------------------------------------
    // The scalar conv loops: the definition the vector loops are held to.
    // -----------------------------------------------------------------------

    /// The forward conv one output at a time: `bias + k₀·s[p] + k₁·s[p+1]
    /// + …`, a scalar `kernel`-tap reduction per (sample, filter, position)
    /// into `pres`, and its ReLU into `feats`.
    fn features_reference(net: &Conv1dNet, x: &Matrix, pres: &mut Matrix, feats: &mut Matrix) {
        assert_eq!(x.cols(), net.len, "conv1d input length mismatch");
        let positions = net.out_positions();
        pres.resize(x.rows(), net.feature_dim());
        feats.resize(x.rows(), net.feature_dim());
        for (i, signal) in x.rows_iter().enumerate() {
            let pre_row = pres.row_mut(i);
            for f in 0..net.filters {
                let kernel = net.kernels.row(f);
                let dst = &mut pre_row[f * positions..(f + 1) * positions];
                for (p, slot) in dst.iter_mut().enumerate() {
                    let mut acc = net.kbias[f];
                    for (j, &kj) in kernel.iter().enumerate() {
                        acc += kj * signal[p + j];
                    }
                    *slot = acc;
                }
            }
            let feat_row = feats.row_mut(i);
            let pre_row = pres.row(i);
            for (dst, &v) in feat_row.iter_mut().zip(pre_row) {
                *dst = v.max(0.0);
            }
        }
    }

    /// The kernel gradient one (sample, filter, active position) at a
    /// time, skipping a zero upstream: every `dK[f][j]` and `dkbias[f]`
    /// sums its terms in ascending (sample, position) order from `+0.0`.
    fn kernel_grad_reference(
        net: &Conv1dNet,
        x: &Matrix,
        pres: &Matrix,
        dfeats: &Matrix,
        grad: &mut [f32],
    ) {
        let positions = net.out_positions();
        let kn = net.filters * net.kernel;
        let (dkernels, rest) = grad.split_at_mut(kn);
        let dkbias = &mut rest[..net.filters];
        dkernels.fill(0.0);
        dkbias.fill(0.0);
        for (i, signal) in x.rows_iter().enumerate() {
            let pre_row = pres.row(i);
            let dfeat_row = dfeats.row(i);
            for f in 0..net.filters {
                let dk_row = &mut dkernels[f * net.kernel..(f + 1) * net.kernel];
                let pre = &pre_row[f * positions..(f + 1) * positions];
                for (p, &pr) in pre.iter().enumerate() {
                    if pr > 0.0 {
                        let upstream = dfeat_row[f * positions + p];
                        if upstream == 0.0 {
                            continue;
                        }
                        dkbias[f] += upstream;
                        for (j, slot) in dk_row.iter_mut().enumerate() {
                            *slot += upstream * signal[p + j];
                        }
                    }
                }
            }
        }
    }

    /// The whole minibatch step around the two scalar loops, which keep
    /// the pre-activations in `pres` and mask the gradient w.r.t. the maps,
    /// `dfeats`, on them. Maps and gradients are filter-major.
    fn loss_and_grad_reference(
        net: &Conv1dNet,
        x: &Matrix,
        y: &[usize],
        ws: &mut TrainWorkspace,
        pres: &mut Matrix,
        dfeats: &mut Matrix,
    ) -> f32 {
        features_reference(net, x, pres, &mut ws.feats);
        ws.feats.matmul_into(&net.w, &mut ws.delta);
        ws.delta.add_row_broadcast(&net.b);
        softmax_rows_inplace(&mut ws.delta);
        let loss = cross_entropy(&ws.delta, y);
        cross_entropy_logit_grad_inplace(&mut ws.delta, y);
        ws.grad.resize(net.num_params(), 0.0);
        let woff = net.filters * net.kernel + net.filters;
        let wn = net.feature_dim() * net.classes;
        ws.feats.matmul_tn_into_slice(&ws.delta, &mut ws.grad[woff..woff + wn]);
        ws.delta.col_sums_into(&mut ws.grad[woff + wn..]);
        ws.delta.matmul_nt_into(&net.w, dfeats);
        kernel_grad_reference(net, x, pres, dfeats, &mut ws.grad);
        loss
    }

    /// Filter-major maps (`[i][f·P + p]`) laid out like the lanes
    /// (`[i][p·F′ + f]`), with `pad` in the padding lanes.
    fn to_lanes(net: &Conv1dNet, maps: &Matrix, pad: f32) -> Vec<f32> {
        let (positions, width) = (net.out_positions(), net.lane_width());
        let mut out = vec![pad; maps.rows() * net.map_dim()];
        for (i, row) in maps.rows_iter().enumerate() {
            for (m, &v) in row.iter().enumerate() {
                out[(i * positions + m % positions) * width + m / positions] = v;
            }
        }
        out
    }

    /// `dfeats` where its pre-activation is positive, `+0.0` elsewhere.
    fn masked_reference(pres: &Matrix, dfeats: &Matrix) -> Matrix {
        let mut masked = dfeats.clone();
        for (u, &pr) in masked.as_mut_slice().iter_mut().zip(pres.as_slice()) {
            *u = if pr > 0.0 { *u } else { 0.0 };
        }
        masked
    }

    /// `(len, kernel)`: kernels 1, 2, 5 and the whole signal at lengths 32
    /// and 33, and each short kernel on a signal of its own length.
    const CONV_SHAPES: [(usize, usize); 11] = [
        (32, 1),
        (32, 2),
        (32, 5),
        (32, 32),
        (33, 1),
        (33, 2),
        (33, 5),
        (33, 33),
        (1, 1),
        (2, 2),
        (5, 5),
    ];
    /// Filter counts either side of the eight-filter lane blocks.
    const CONV_FILTERS: [usize; 7] = [1, 3, 7, 8, 9, 16, 17];
    /// Batch sizes, in an order that grows and shrinks one workspace.
    const CONV_BATCHES: [usize; 4] = [7, 33, 1, 32];

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn conv1d_step_matches_the_scalar_loops_bit_for_bit() {
        // One workspace for every shape, so stale buffers from a larger
        // or wider step are in play.
        let mut ws = TrainWorkspace::new();
        let mut oracle = TrainWorkspace::new();
        let (mut pres, mut dfeats) = (Matrix::zeros(0, 0), Matrix::zeros(0, 0));
        let (mut negative, mut zero_upstream) = (0, 0);
        // 10 classes fill a second block of class lanes.
        for (len, kernel, classes) in
            CONV_SHAPES.into_iter().flat_map(|(l, k)| [(l, k, 3), (l, k, 10)])
        {
            for filters in CONV_FILTERS {
                let mut net = Conv1dNet::new(&mut seeded(31), len, kernel, filters, classes);
                // Kernel biases below zero push maps negative; zeroed
                // classifier rows give their feature columns a +0.0
                // upstream.
                for (f, b) in net.kbias.iter_mut().enumerate() {
                    *b = 0.25 * (f % 3) as f32 - 0.25;
                }
                for (r, row) in net.w.as_mut_slice().chunks_exact_mut(classes).enumerate() {
                    if r % 3 == 1 {
                        row.fill(0.0);
                    }
                }
                for batch in CONV_BATCHES {
                    let (mut x, y) = tiny_batch(len, classes, batch);
                    for (i, v) in x.as_mut_slice().iter_mut().enumerate() {
                        match i % 11 {
                            3 => *v = 0.0,
                            7 => *v = -0.0,
                            _ => {}
                        }
                    }
                    let loss = net.loss_and_grad_into(&x, &y, &mut ws);
                    let want =
                        loss_and_grad_reference(&net, &x, &y, &mut oracle, &mut pres, &mut dfeats);

                    let at = format!(
                        "len {len} kernel {kernel} filters {filters} classes {classes} batch {batch}"
                    );
                    assert_eq!(loss.to_bits(), want.to_bits(), "loss, {at}");
                    let feats = to_lanes(&net, &oracle.feats, 0.0);
                    assert_eq!(bits(ws.feats.as_slice()), bits(&feats), "feats, {at}");
                    let upstream = to_lanes(&net, &masked_reference(&pres, &dfeats), 0.0);
                    assert_eq!(bits(&ws.upstream), bits(&upstream), "upstream, {at}");
                    assert_eq!(bits(ws.grad()), bits(oracle.grad()), "gradient, {at}");
                    negative += pres.as_slice().iter().filter(|&&v| v < 0.0).count();
                    zero_upstream += (ws.feats.as_slice().iter().zip(&ws.upstream))
                        .filter(|&(&map, &u)| map > 0.0 && u == 0.0)
                        .count();
                }
            }
        }
        assert!(negative > 0 && zero_upstream > 0, "{negative} negative, {zero_upstream} zero");
    }

    #[test]
    fn conv1d_kernel_gradient_matches_the_scalar_loop_on_hostile_inputs() {
        // Pre-activations ±0.0, upstream ±0.0, and in every sample one
        // ±∞ signal entry that only inactive positions see: the scalar
        // loop never multiplies it, so neither may the lanes.
        let mut ws = TrainWorkspace::new();
        for (len, kernel) in CONV_SHAPES {
            for filters in CONV_FILTERS {
                let net = Conv1dNet::new(&mut seeded(32), len, kernel, filters, 3);
                let positions = net.out_positions();
                for batch in CONV_BATCHES {
                    let (mut x, _) = tiny_batch(len, 3, batch);
                    let mut pres = init::gaussian(&mut seeded(33), batch, net.feature_dim(), 1.0);
                    let mut dfeats = init::gaussian(&mut seeded(34), batch, net.feature_dim(), 1.0);
                    let cells = pres.as_mut_slice().iter_mut().zip(dfeats.as_mut_slice());
                    for (c, (pr, u)) in cells.enumerate() {
                        match c % 13 {
                            2 => *u = 0.0,
                            5 => *u = -0.0,
                            8 => *pr = 0.0,
                            11 => *pr = -0.0,
                            _ => {}
                        }
                    }
                    for i in 0..batch {
                        let q = (5 * i) % len;
                        x[(i, q)] = if i % 2 == 0 { f32::INFINITY } else { f32::NEG_INFINITY };
                        for p in q.saturating_sub(kernel - 1)..=q.min(positions - 1) {
                            for f in 0..filters {
                                pres[(i, f * positions + p)] = -1.0;
                            }
                        }
                    }
                    // The maps mask the lanes' gradient as the
                    // pre-activations mask the scalar loop's: the same
                    // values serve as both, laid out like the lanes. The
                    // padding lanes hold +0.0 maps, as the forward pass
                    // leaves them, and a NaN upstream the mask must clear.
                    ws.feats.resize(batch, net.map_dim());
                    ws.feats.as_mut_slice().copy_from_slice(&to_lanes(&net, &pres, 0.0));
                    ws.upstream = to_lanes(&net, &dfeats, f32::NAN);
                    mask_upstream(ws.feats.as_slice(), &mut ws.upstream);
                    let masked = to_lanes(&net, &masked_reference(&pres, &dfeats), 0.0);
                    ws.grad.clear();
                    ws.grad.resize(net.num_params(), f32::NAN);
                    let mut want = ws.grad.clone();
                    net.kernel_grad_into(&x, &mut ws);
                    kernel_grad_reference(&net, &x, &pres, &dfeats, &mut want);
                    let front = filters * kernel + filters;
                    let at = format!("len {len} kernel {kernel} filters {filters} batch {batch}");
                    assert_eq!(bits(&ws.upstream), bits(&masked), "upstream, {at}");
                    assert_eq!(bits(&ws.grad[..front]), bits(&want[..front]), "{at}");
                    assert!(ws.grad[..front].iter().all(|g| g.is_finite()), "{at}");
                }
            }
        }
    }

    #[test]
    fn conv1d_predict_proba_matches_the_scalar_forward_bit_for_bit() {
        // Batch 250 is converge_flips' test set; 10 classes fill a second
        // block of class lanes.
        let (mut pres, mut feats) = (Matrix::zeros(0, 0), Matrix::zeros(0, 0));
        for (len, kernel) in CONV_SHAPES {
            for filters in CONV_FILTERS {
                for classes in [5, 10] {
                    let mut net = Conv1dNet::new(&mut seeded(35), len, kernel, filters, classes);
                    for (f, b) in net.kbias.iter_mut().enumerate() {
                        *b = 0.25 * (f % 3) as f32 - 0.25;
                    }
                    for (c, b) in net.b.iter_mut().enumerate() {
                        *b = 0.125 * c as f32 - 0.5;
                    }
                    for batch in [1, 7, 33, 250] {
                        let (x, _) = tiny_batch(len, classes, batch);
                        features_reference(&net, &x, &mut pres, &mut feats);
                        let mut want = feats.matmul(&net.w);
                        want.add_row_broadcast(&net.b);
                        softmax_rows_inplace(&mut want);
                        let got = net.predict_proba(&x);
                        let at = format!(
                            "len {len} kernel {kernel} filters {filters} classes {classes} batch {batch}"
                        );
                        assert_eq!(got.shape(), want.shape(), "{at}");
                        assert_eq!(bits(got.as_slice()), bits(want.as_slice()), "{at}");
                    }
                }
            }
        }
    }

    #[test]
    fn conv1d_gradient_holds_its_golden_bits() {
        // FNV-1a over the loss and every gradient word of one ECG-shaped
        // minibatch (signal 32, kernel 5, 8 filters, 5 classes, batch 32).
        // Moving it moves every converge_flips history.
        let net = Conv1dNet::new(&mut seeded(7), 32, 5, 8, 5);
        let (x, y) = tiny_batch(32, 5, 32);
        let mut ws = TrainWorkspace::new();
        let loss = net.loss_and_grad_into(&x, &y, &mut ws);
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        let words = std::iter::once(loss).chain(ws.grad().iter().copied());
        for byte in words.flat_map(|v| v.to_bits().to_le_bytes()) {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
        assert_eq!(hash, 0x0666_dc5b_a842_1516, "conv1d gradient bits moved: {hash:#018x}");
    }
}
