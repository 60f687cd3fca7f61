//! Tape-based reverse-mode automatic differentiation.
//!
//! A [`Tape`] records a computation as a flat list of nodes; calling
//! [`Tape::backward`] walks the list in reverse, propagating gradients and
//! accumulating parameter gradients into the shared [`ParamStore`].
//!
//! The op set is exactly what the Fig.-2 importance model needs:
//! constants, parameter reads, embedding gathers, matmul, transpose,
//! row-broadcast add, element-wise add and ReLU, scalar scale, row
//! softmax, column-wise max-pool, row concatenation, and a
//! binary-cross-entropy-with-logits loss head.
//!
//! Allocation behavior: a tape owns a shape-keyed pool of tensor buffers.
//! [`Tape::reset`] recycles every node's value/gradient buffer into the
//! pool, so a tape reused across training steps reaches a steady state
//! with no per-step heap allocation. Gradient buffers are allocated
//! lazily — a node (or parameter row) that never receives gradient mass
//! never allocates one. All recycled buffers are fully (re)initialized
//! before use, so results are bit-identical to the allocate-per-step
//! implementation.

use crate::tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// Handle to a node on a [`Tape`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeId(usize);

/// Handle to a parameter tensor in a [`ParamStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParamId(usize);

/// Weight initialization schemes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Init {
    /// All zeros (for biases).
    Zeros,
    /// Uniform Xavier/Glorot: `U(-a, a)` with `a = sqrt(6 / (fan_in + fan_out))`.
    Xavier,
    /// Uniform in `(-scale, scale)` (for embedding tables).
    Uniform(f32),
}

/// Which rows of a parameter have ever received gradient mass.
///
/// Rows outside the set have identically-zero gradient and (because
/// first/second moments only move when a gradient does) identically-zero
/// optimizer state, so an optimizer may skip them: the skipped update is
/// exactly `x -= 0.0`, a bitwise no-op. This is what lets Adam scale with
/// the *touched* rows of the embedding tables instead of the vocabulary.
#[derive(Debug)]
pub struct ActiveRows {
    all: bool,
    mask: Vec<bool>,
    rows: Vec<u32>,
}

impl ActiveRows {
    fn new(n_rows: usize) -> Self {
        Self {
            all: false,
            mask: vec![false; n_rows],
            rows: Vec::new(),
        }
    }

    fn mark_all(&mut self) {
        self.all = true;
    }

    /// Unmarks everything, keeping the mask allocation.
    fn reset(&mut self) {
        self.all = false;
        for &r in &self.rows {
            self.mask[r as usize] = false;
        }
        self.rows.clear();
    }

    fn mark(&mut self, r: usize) {
        if self.all || self.mask[r] {
            return;
        }
        self.mask[r] = true;
        self.rows.push(r as u32);
    }

    /// Whether every row is active (the parameter was read densely).
    pub fn is_all(&self) -> bool {
        self.all
    }

    /// The individually-marked rows, in first-touch order. Meaningful only
    /// when [`ActiveRows::is_all`] is false.
    pub fn rows(&self) -> &[u32] {
        &self.rows
    }
}

/// Owns model parameters and their gradient accumulators.
#[derive(Debug)]
pub struct ParamStore {
    names: Vec<&'static str>,
    values: Vec<Tensor>,
    /// Lazily allocated: `None` means "identically zero, never touched".
    grads: Vec<Option<Tensor>>,
    active: Vec<ActiveRows>,
    rng: StdRng,
}

impl ParamStore {
    /// Creates an empty store whose initializers draw from `seed`.
    pub fn new(seed: u64) -> Self {
        Self {
            names: Vec::new(),
            values: Vec::new(),
            grads: Vec::new(),
            active: Vec::new(),
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Allocates a `rows x cols` parameter initialized per `init`. The
    /// gradient accumulator is allocated lazily, on the first `backward`
    /// that touches the parameter.
    pub fn tensor(&mut self, name: &'static str, rows: usize, cols: usize, init: Init) -> ParamId {
        let mut t = Tensor::zeros(rows, cols);
        match init {
            Init::Zeros => {}
            Init::Xavier => {
                let a = (6.0 / (rows + cols) as f32).sqrt();
                for v in t.data_mut() {
                    *v = self.rng.gen_range(-a..a);
                }
            }
            Init::Uniform(s) => {
                for v in t.data_mut() {
                    *v = self.rng.gen_range(-s..s);
                }
            }
        }
        self.names.push(name);
        self.values.push(t);
        self.grads.push(None);
        self.active.push(ActiveRows::new(rows));
        ParamId(self.values.len() - 1)
    }

    /// Number of parameter tensors.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Read access to a parameter value.
    pub fn value(&self, id: ParamId) -> &Tensor {
        &self.values[id.0]
    }

    /// Mutable access to a parameter value (used by optimizers and tests).
    pub fn value_mut(&mut self, id: ParamId) -> &mut Tensor {
        &mut self.values[id.0]
    }

    /// Read access to a parameter gradient accumulator.
    ///
    /// # Panics
    /// Panics when no `backward` pass has ever touched the parameter (the
    /// accumulator is allocated lazily).
    pub fn grad(&self, id: ParamId) -> &Tensor {
        self.grads[id.0]
            .as_ref()
            .expect("parameter gradient never touched; run backward first")
    }

    /// Zeroes every allocated gradient accumulator.
    pub fn zero_grads(&mut self) {
        for g in self.grads.iter_mut().flatten() {
            g.zero();
        }
    }

    /// Iterates `(value, grad, active-rows)` triples — the optimizer update
    /// loop. A `None` gradient is identically zero (never touched).
    pub fn updates_mut(
        &mut self,
    ) -> impl Iterator<Item = (&mut Tensor, Option<&mut Tensor>, &ActiveRows)> {
        self.values
            .iter_mut()
            .zip(self.grads.iter_mut())
            .zip(self.active.iter())
            .map(|((v, g), a)| (v, g.as_mut(), a))
    }

    /// Total number of scalar parameters.
    pub fn num_scalars(&self) -> usize {
        self.values.iter().map(Tensor::len).sum()
    }

    /// Iterates the parameter value tensors in id order (for snapshots,
    /// diagnostics, and bitwise-identity tests).
    pub fn values(&self) -> impl Iterator<Item = &Tensor> {
        self.values.iter()
    }

    /// The gradient accumulator of `id`, allocated (zeroed) on first use,
    /// with every row marked active (a dense parameter read).
    fn grad_accum_all(&mut self, id: ParamId) -> &mut Tensor {
        self.active[id.0].mark_all();
        let (r, c) = (self.values[id.0].rows(), self.values[id.0].cols());
        self.grads[id.0].get_or_insert_with(|| Tensor::zeros(r, c))
    }

    /// The gradient accumulator of `id`, allocated (zeroed) on first use,
    /// with only `rows` marked active (an embedding gather).
    fn grad_accum_rows(&mut self, id: ParamId, rows: &[usize]) -> &mut Tensor {
        let act = &mut self.active[id.0];
        for &r in rows {
            act.mark(r);
        }
        let (r, c) = (self.values[id.0].rows(), self.values[id.0].cols());
        self.grads[id.0].get_or_insert_with(|| Tensor::zeros(r, c))
    }
}

/// A detached parameter-gradient accumulator with the same lazy-allocation
/// and active-row semantics as [`ParamStore`], but owning no parameters.
///
/// This is the building block of deterministic data-parallel training:
/// each worker runs [`Tape::backward_into`] against its own buffer
/// (reading the shared store immutably), and the buffers are then folded
/// into the store **in a fixed order** via [`GradBuffer::merge_into`] —
/// so the f32 reduction tree, and therefore the trained model, never
/// depends on how many threads produced the gradients.
///
/// Buffers are grow-only: [`GradBuffer::clear`] zeroes in place, so a
/// buffer reused across steps reaches a steady state with no allocation.
#[derive(Debug, Default)]
pub struct GradBuffer {
    /// Lazily allocated per parameter: `None` means "identically zero".
    grads: Vec<Option<Tensor>>,
    active: Vec<ActiveRows>,
    shapes: Vec<(usize, usize)>,
}

impl GradBuffer {
    /// An empty buffer; it sizes itself to the store on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sizes the buffer to `store` (no-op when already sized).
    ///
    /// # Panics
    /// Panics when the buffer was previously sized to a *different* store
    /// layout — buffers are not transferable between models.
    pub fn ensure(&mut self, store: &ParamStore) {
        if self.shapes.is_empty() {
            for v in &store.values {
                self.grads.push(None);
                self.active.push(ActiveRows::new(v.rows()));
                self.shapes.push((v.rows(), v.cols()));
            }
            return;
        }
        assert_eq!(
            self.shapes.len(),
            store.values.len(),
            "GradBuffer sized for a different ParamStore"
        );
    }

    /// Zeroes every allocated accumulator and unmarks all active rows,
    /// keeping the allocations for reuse.
    pub fn clear(&mut self) {
        for g in self.grads.iter_mut().flatten() {
            g.zero();
        }
        for a in &mut self.active {
            a.reset();
        }
    }

    /// Folds this buffer's gradients into the store's accumulators —
    /// parameters in id order, gathered rows in this buffer's first-touch
    /// order — exactly as if the contributing backward passes had run
    /// against the store directly.
    pub fn merge_into(&self, store: &mut ParamStore) {
        for (idx, grad) in self.grads.iter().enumerate() {
            let Some(g) = grad else { continue };
            let act = &self.active[idx];
            if act.all {
                store.grad_accum_all(ParamId(idx)).add_assign(g);
            } else if !act.rows.is_empty() {
                let store_act = &mut store.active[idx];
                for &r in &act.rows {
                    store_act.mark(r as usize);
                }
                let (r, c) = self.shapes[idx];
                let t = store.grads[idx].get_or_insert_with(|| Tensor::zeros(r, c));
                for &r in &act.rows {
                    let r = r as usize;
                    for (o, &s) in t.row_mut(r).iter_mut().zip(g.row(r)) {
                        *o += s;
                    }
                }
            }
        }
    }
}

/// Where `backward` sends parameter gradients: the shared store, or a
/// detached per-worker buffer. Both sinks accumulate with the identical
/// zero-filled-then-add arithmetic, so routing through a buffer plus
/// [`GradBuffer::merge_into`] is bit-for-bit the same as accumulating
/// into the store directly.
trait ParamGradSink {
    fn accum_all(&mut self, p: ParamId, grad: &Tensor);
    fn accum_rows(&mut self, p: ParamId, indices: &[usize], grad: &Tensor);
}

impl ParamGradSink for ParamStore {
    fn accum_all(&mut self, p: ParamId, grad: &Tensor) {
        self.grad_accum_all(p).add_assign(grad);
    }

    fn accum_rows(&mut self, p: ParamId, indices: &[usize], grad: &Tensor) {
        let g = self.grad_accum_rows(p, indices);
        for (r, &idx) in indices.iter().enumerate() {
            for (gv, &d) in g.row_mut(idx).iter_mut().zip(grad.row(r)) {
                *gv += d;
            }
        }
    }
}

impl ParamGradSink for GradBuffer {
    fn accum_all(&mut self, p: ParamId, grad: &Tensor) {
        self.active[p.0].mark_all();
        let (r, c) = self.shapes[p.0];
        self.grads[p.0]
            .get_or_insert_with(|| Tensor::zeros(r, c))
            .add_assign(grad);
    }

    fn accum_rows(&mut self, p: ParamId, indices: &[usize], grad: &Tensor) {
        let act = &mut self.active[p.0];
        for &r in indices {
            act.mark(r);
        }
        let (r, c) = self.shapes[p.0];
        let g = self.grads[p.0].get_or_insert_with(|| Tensor::zeros(r, c));
        for (r, &idx) in indices.iter().enumerate() {
            for (gv, &d) in g.row_mut(idx).iter_mut().zip(grad.row(r)) {
                *gv += d;
            }
        }
    }
}

enum Op {
    /// Leaf holding a constant input.
    Constant,
    /// Leaf reading parameter `p` in full.
    Param(ParamId),
    /// Rows of parameter `p` gathered by `indices` (an embedding lookup).
    Gather(ParamId, Vec<usize>),
    MatMul(NodeId, NodeId),
    Transpose(NodeId),
    /// Element-wise sum of two same-shape nodes.
    Add(NodeId, NodeId),
    /// `a + broadcast_rows(b)` where `b` is `1 x cols`.
    AddRow(NodeId, NodeId),
    Relu(NodeId),
    Scale(NodeId, f32),
    /// Row-wise softmax.
    Softmax(NodeId),
    /// Column-wise max over rows → `1 x cols`; remembers arg-max rows.
    MaxPool(NodeId, Vec<usize>),
    /// Horizontal concatenation of `1 x a` and `1 x b` → `1 x (a+b)`.
    ConcatCols(NodeId, NodeId),
    /// Mean binary cross-entropy with logits against fixed targets;
    /// produces a `1 x 1` scalar.
    BceWithLogits(NodeId, Vec<f32>),
}

struct Node {
    op: Op,
    value: Tensor,
    /// Lazily allocated by `backward`; `None` until gradient mass arrives.
    grad: Option<Tensor>,
}

/// Recycles tensor data buffers keyed by shape, so a reused tape performs
/// no steady-state allocation.
#[derive(Default)]
struct TensorPool {
    free: HashMap<(usize, usize), Vec<Vec<f32>>>,
}

impl TensorPool {
    fn put(&mut self, t: Tensor) {
        if t.is_empty() {
            return;
        }
        self.free
            .entry((t.rows(), t.cols()))
            .or_default()
            .push(t.into_vec());
    }

    /// A tensor whose contents are unspecified — the caller must overwrite
    /// every element before the tensor is read.
    fn take_uninit(&mut self, rows: usize, cols: usize) -> Tensor {
        match self.free.get_mut(&(rows, cols)).and_then(Vec::pop) {
            Some(data) => Tensor::from_vec(rows, cols, data),
            None => Tensor::zeros(rows, cols),
        }
    }

    fn take_zeroed(&mut self, rows: usize, cols: usize) -> Tensor {
        match self.free.get_mut(&(rows, cols)).and_then(Vec::pop) {
            Some(mut data) => {
                data.iter_mut().for_each(|v| *v = 0.0);
                Tensor::from_vec(rows, cols, data)
            }
            None => Tensor::zeros(rows, cols),
        }
    }

    fn take_copy(&mut self, src: &Tensor) -> Tensor {
        let mut t = self.take_uninit(src.rows(), src.cols());
        t.data_mut().copy_from_slice(src.data());
        t
    }
}

/// A single recorded computation. Create one per model and call
/// [`Tape::reset`] between forward passes to reuse its buffers.
#[derive(Default)]
pub struct Tape {
    nodes: Vec<Node>,
    pool: TensorPool,
}

impl Tape {
    /// An empty tape.
    pub fn new() -> Self {
        Self::default()
    }

    /// Clears the recorded computation, recycling every value/gradient
    /// buffer into the shape-keyed pool and retaining node capacity. After
    /// a few steps of a fixed-shape model the tape allocates nothing.
    pub fn reset(&mut self) {
        while let Some(node) = self.nodes.pop() {
            self.pool.put(node.value);
            if let Some(g) = node.grad {
                self.pool.put(g);
            }
        }
    }

    fn push(&mut self, op: Op, value: Tensor) -> NodeId {
        self.nodes.push(Node {
            op,
            value,
            grad: None,
        });
        NodeId(self.nodes.len() - 1)
    }

    /// The forward value of `id`.
    pub fn value(&self, id: NodeId) -> &Tensor {
        &self.nodes[id.0].value
    }

    /// The gradient of the loss w.r.t. node `id` (valid after `backward`).
    ///
    /// # Panics
    /// Panics when no gradient mass ever reached the node (gradient
    /// buffers are allocated lazily).
    pub fn grad(&self, id: NodeId) -> &Tensor {
        self.nodes[id.0]
            .grad
            .as_ref()
            .expect("node received no gradient; run backward first")
    }

    /// Records a constant leaf.
    pub fn constant(&mut self, t: Tensor) -> NodeId {
        self.push(Op::Constant, t)
    }

    /// Records a full parameter read.
    pub fn param(&mut self, store: &ParamStore, p: ParamId) -> NodeId {
        let v = self.pool.take_copy(store.value(p));
        self.push(Op::Param(p), v)
    }

    /// Records an embedding gather: rows `indices` of parameter `p`,
    /// stacked in order.
    pub fn gather(&mut self, store: &ParamStore, p: ParamId, indices: &[usize]) -> NodeId {
        let table = store.value(p);
        let mut out = self.pool.take_uninit(indices.len(), table.cols());
        for (r, &i) in indices.iter().enumerate() {
            out.row_mut(r).copy_from_slice(table.row(i));
        }
        self.push(Op::Gather(p, indices.to_vec()), out)
    }

    /// Matrix product.
    pub fn matmul(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let out = {
            let av = &self.nodes[a.0].value;
            let bv = &self.nodes[b.0].value;
            let mut out = self.pool.take_zeroed(av.rows(), bv.cols());
            av.matmul_into(bv, &mut out);
            out
        };
        self.push(Op::MatMul(a, b), out)
    }

    /// Transpose.
    pub fn transpose(&mut self, a: NodeId) -> NodeId {
        let out = {
            let av = &self.nodes[a.0].value;
            let mut out = self.pool.take_uninit(av.cols(), av.rows());
            av.transpose_into(&mut out);
            out
        };
        self.push(Op::Transpose(a), out)
    }

    /// Element-wise sum (same shapes).
    pub fn add(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let mut v = self.pool.take_copy(&self.nodes[a.0].value);
        v.add_assign(&self.nodes[b.0].value);
        self.push(Op::Add(a, b), v)
    }

    /// Adds row-vector `b` (`1 x cols`) to every row of `a`.
    pub fn add_row(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let v = {
            let bv = &self.nodes[b.0].value;
            assert_eq!(bv.rows(), 1, "add_row bias must be 1 x cols");
            assert_eq!(bv.cols(), self.nodes[a.0].value.cols());
            let mut v = self.pool.take_copy(&self.nodes[a.0].value);
            for r in 0..v.rows() {
                for (x, bb) in v.row_mut(r).iter_mut().zip(bv.row(0)) {
                    *x += bb;
                }
            }
            v
        };
        self.push(Op::AddRow(a, b), v)
    }

    /// Rectified linear unit.
    pub fn relu(&mut self, a: NodeId) -> NodeId {
        let mut v = self.pool.take_copy(&self.nodes[a.0].value);
        for x in v.data_mut() {
            *x = x.max(0.0);
        }
        self.push(Op::Relu(a), v)
    }

    /// Multiplies every element by constant `s`.
    pub fn scale(&mut self, a: NodeId, s: f32) -> NodeId {
        let mut v = self.pool.take_copy(&self.nodes[a.0].value);
        v.scale_assign(s);
        self.push(Op::Scale(a, s), v)
    }

    /// Row-wise softmax (numerically stabilized).
    pub fn softmax(&mut self, a: NodeId) -> NodeId {
        let mut v = self.pool.take_copy(&self.nodes[a.0].value);
        for r in 0..v.rows() {
            let row = v.row_mut(r);
            let m = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let mut sum = 0.0;
            for x in row.iter_mut() {
                *x = (*x - m).exp();
                sum += *x;
            }
            for x in row.iter_mut() {
                *x /= sum;
            }
        }
        self.push(Op::Softmax(a), v)
    }

    /// Column-wise max over rows, producing a `1 x cols` row. This is the
    /// max-pooling step that forms the *Neighborhood Encoding* in Fig. 2.
    pub fn max_pool(&mut self, a: NodeId) -> NodeId {
        let (out, argmax) = {
            let av = &self.nodes[a.0].value;
            assert!(av.rows() > 0, "max_pool over empty tensor");
            let mut out = self.pool.take_uninit(1, av.cols());
            let mut argmax = vec![0usize; av.cols()];
            for (c, am) in argmax.iter_mut().enumerate() {
                let mut best = f32::NEG_INFINITY;
                for r in 0..av.rows() {
                    let x = av.get(r, c);
                    if x > best {
                        best = x;
                        *am = r;
                    }
                }
                out.set(0, c, best);
            }
            (out, argmax)
        };
        self.push(Op::MaxPool(a, argmax), out)
    }

    /// Horizontal concatenation of two single-row tensors.
    pub fn concat_cols(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let v = {
            let av = &self.nodes[a.0].value;
            let bv = &self.nodes[b.0].value;
            assert_eq!(av.rows(), 1, "concat_cols expects row vectors");
            assert_eq!(bv.rows(), 1, "concat_cols expects row vectors");
            let (ac, bc) = (av.cols(), bv.cols());
            let mut v = self.pool.take_uninit(1, ac + bc);
            v.data_mut()[..ac].copy_from_slice(av.row(0));
            v.data_mut()[ac..].copy_from_slice(bv.row(0));
            v
        };
        self.push(Op::ConcatCols(a, b), v)
    }

    /// Mean binary cross-entropy with logits. `logits` must contain exactly
    /// `targets.len()` elements (any shape); targets are in `{0, 1}` (soft
    /// targets also work). Returns a scalar node.
    pub fn bce_with_logits(&mut self, logits: NodeId, targets: &[f32]) -> NodeId {
        let v = {
            let lv = &self.nodes[logits.0].value;
            assert_eq!(lv.len(), targets.len(), "logits/targets length mismatch");
            let mut loss = 0.0f64;
            for (&z, &y) in lv.data().iter().zip(targets) {
                // log(1 + exp(-|z|)) + max(z, 0) - z*y, the stable form.
                let z = z as f64;
                let y = y as f64;
                loss += z.max(0.0) - z * y + (-z.abs()).exp().ln_1p();
            }
            loss /= targets.len() as f64;
            let mut v = self.pool.take_uninit(1, 1);
            v.data_mut()[0] = loss as f32;
            v
        };
        self.push(Op::BceWithLogits(logits, targets.to_vec()), v)
    }

    /// Accumulates `delta` into a node's lazily-allocated gradient,
    /// recycling `delta` when the slot already exists. The first-touch
    /// path stores `0.0 + delta` to bitwise-match the historical
    /// "zero-filled then add" accumulation (it canonicalizes `-0.0`).
    fn accum_owned(slot: &mut Option<Tensor>, pool: &mut TensorPool, mut delta: Tensor) {
        match slot {
            Some(g) => {
                g.add_assign(&delta);
                pool.put(delta);
            }
            None => {
                for v in delta.data_mut() {
                    *v += 0.0;
                }
                *slot = Some(delta);
            }
        }
    }

    /// Like [`Tape::accum_owned`] for a borrowed delta.
    fn accum_ref(slot: &mut Option<Tensor>, pool: &mut TensorPool, src: &Tensor) {
        match slot {
            Some(g) => g.add_assign(src),
            None => {
                let mut g = pool.take_uninit(src.rows(), src.cols());
                for (o, &s) in g.data_mut().iter_mut().zip(src.data()) {
                    *o = s + 0.0;
                }
                *slot = Some(g);
            }
        }
    }

    /// Runs the backward pass from `loss` (seeding its gradient with 1) and
    /// accumulates parameter gradients into `store`. Nodes the loss does
    /// not depend on — e.g. constants in a forward-only subgraph — never
    /// allocate a gradient buffer.
    ///
    /// # Panics
    /// Panics when `loss` is not a `1 x 1` scalar node.
    pub fn backward(&mut self, loss: NodeId, store: &mut ParamStore) {
        self.backward_impl(loss, store);
    }

    /// Like [`Tape::backward`], but accumulates parameter gradients into a
    /// detached [`GradBuffer`] instead of the store, which is only read.
    /// This is the data-parallel entry point: many tapes can run
    /// `backward_into` concurrently against the same store, each into its
    /// own buffer, with the buffers merged serially afterwards.
    pub fn backward_into(&mut self, loss: NodeId, store: &ParamStore, buf: &mut GradBuffer) {
        buf.ensure(store);
        self.backward_impl(loss, buf);
    }

    fn backward_impl<S: ParamGradSink>(&mut self, loss: NodeId, sink: &mut S) {
        assert_eq!(self.nodes[loss.0].value.len(), 1, "loss must be scalar");
        if self.nodes[loss.0].grad.is_none() {
            let seed = self.pool.take_zeroed(1, 1);
            self.nodes[loss.0].grad = Some(seed);
        }
        self.nodes[loss.0].grad.as_mut().unwrap().data_mut()[0] = 1.0;
        for i in (0..self.nodes.len()).rev() {
            // A node with no gradient buffer received no gradient mass;
            // nothing flows upstream from it.
            let Some(grad) = self.nodes[i].grad.take() else {
                continue;
            };
            // Take the op out so the match holds no borrow of `self.nodes`
            // (ops carry index/target vectors the arms read directly).
            let op = std::mem::replace(&mut self.nodes[i].op, Op::Constant);
            match &op {
                Op::Constant => {}
                Op::Param(p) => sink.accum_all(*p, &grad),
                Op::Gather(p, indices) => sink.accum_rows(*p, indices, &grad),
                Op::MatMul(a, b) => {
                    let (a, b) = (*a, *b);
                    // da = grad @ b^T
                    let bt = {
                        let bv = &self.nodes[b.0].value;
                        let mut bt = self.pool.take_uninit(bv.cols(), bv.rows());
                        bv.transpose_into(&mut bt);
                        bt
                    };
                    let mut da = self.pool.take_zeroed(grad.rows(), bt.cols());
                    grad.matmul_into(&bt, &mut da);
                    self.pool.put(bt);
                    Self::accum_owned(&mut self.nodes[a.0].grad, &mut self.pool, da);
                    // db = a^T @ grad
                    let at = {
                        let av = &self.nodes[a.0].value;
                        let mut at = self.pool.take_uninit(av.cols(), av.rows());
                        av.transpose_into(&mut at);
                        at
                    };
                    let mut db = self.pool.take_zeroed(at.rows(), grad.cols());
                    at.matmul_into(&grad, &mut db);
                    self.pool.put(at);
                    Self::accum_owned(&mut self.nodes[b.0].grad, &mut self.pool, db);
                }
                Op::Transpose(a) => {
                    let mut da = self.pool.take_uninit(grad.cols(), grad.rows());
                    grad.transpose_into(&mut da);
                    Self::accum_owned(&mut self.nodes[a.0].grad, &mut self.pool, da);
                }
                Op::Add(a, b) => {
                    Self::accum_ref(&mut self.nodes[a.0].grad, &mut self.pool, &grad);
                    Self::accum_ref(&mut self.nodes[b.0].grad, &mut self.pool, &grad);
                }
                Op::AddRow(a, b) => {
                    Self::accum_ref(&mut self.nodes[a.0].grad, &mut self.pool, &grad);
                    let mut db = self.pool.take_zeroed(1, grad.cols());
                    for r in 0..grad.rows() {
                        for (o, &g) in db.row_mut(0).iter_mut().zip(grad.row(r)) {
                            *o += g;
                        }
                    }
                    Self::accum_owned(&mut self.nodes[b.0].grad, &mut self.pool, db);
                }
                Op::Relu(a) => {
                    let a = *a;
                    let da = {
                        let av = &self.nodes[a.0].value;
                        let mut da = self.pool.take_uninit(grad.rows(), grad.cols());
                        for ((o, &g), &x) in
                            da.data_mut().iter_mut().zip(grad.data()).zip(av.data())
                        {
                            *o = if x > 0.0 { g } else { 0.0 };
                        }
                        da
                    };
                    Self::accum_owned(&mut self.nodes[a.0].grad, &mut self.pool, da);
                }
                Op::Scale(a, s) => {
                    let (a, s) = (*a, *s);
                    let mut da = self.pool.take_copy(&grad);
                    da.scale_assign(s);
                    Self::accum_owned(&mut self.nodes[a.0].grad, &mut self.pool, da);
                }
                Op::Softmax(a) => {
                    let a = *a;
                    let da = {
                        let y = &self.nodes[i].value;
                        let mut da = self.pool.take_uninit(grad.rows(), grad.cols());
                        for r in 0..grad.rows() {
                            let yr = y.row(r);
                            let gr = grad.row(r);
                            let dot: f32 = yr.iter().zip(gr).map(|(y, g)| y * g).sum();
                            for c in 0..grad.cols() {
                                da.set(r, c, yr[c] * (gr[c] - dot));
                            }
                        }
                        da
                    };
                    Self::accum_owned(&mut self.nodes[a.0].grad, &mut self.pool, da);
                }
                Op::MaxPool(a, argmax) => {
                    let a = *a;
                    let rows = self.nodes[a.0].value.rows();
                    let mut da = self.pool.take_zeroed(rows, grad.cols());
                    for (c, &r) in argmax.iter().enumerate() {
                        da.set(r, c, grad.get(0, c));
                    }
                    Self::accum_owned(&mut self.nodes[a.0].grad, &mut self.pool, da);
                }
                Op::ConcatCols(a, b) => {
                    let (a, b) = (*a, *b);
                    let ac = self.nodes[a.0].value.cols();
                    let mut da = self.pool.take_uninit(1, ac);
                    da.data_mut().copy_from_slice(&grad.row(0)[..ac]);
                    Self::accum_owned(&mut self.nodes[a.0].grad, &mut self.pool, da);
                    let mut db = self.pool.take_uninit(1, grad.cols() - ac);
                    db.data_mut().copy_from_slice(&grad.row(0)[ac..]);
                    Self::accum_owned(&mut self.nodes[b.0].grad, &mut self.pool, db);
                }
                Op::BceWithLogits(logits, targets) => {
                    let logits = *logits;
                    let upstream = grad.data()[0];
                    let n = targets.len() as f32;
                    let dl = {
                        let lv = &self.nodes[logits.0].value;
                        let mut dl = self.pool.take_uninit(lv.rows(), lv.cols());
                        for (k, (&z, &y)) in lv.data().iter().zip(targets).enumerate() {
                            let sig = 1.0 / (1.0 + (-z).exp());
                            dl.data_mut()[k] = upstream * (sig - y) / n;
                        }
                        dl
                    };
                    Self::accum_owned(&mut self.nodes[logits.0].grad, &mut self.pool, dl);
                }
            }
            self.nodes[i].op = op;
            // Restore the node's grad (for inspection via `grad()`).
            self.nodes[i].grad = Some(grad);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Central-difference gradient check of the parameter gradient produced
    /// by `f`. `f` builds a scalar loss from the store on a fresh tape.
    fn grad_check<F>(store: &mut ParamStore, p: ParamId, f: F)
    where
        F: Fn(&mut Tape, &ParamStore) -> NodeId,
    {
        // Analytical gradients.
        store.zero_grads();
        let mut tape = Tape::new();
        let loss = f(&mut tape, store);
        tape.backward(loss, store);
        let analytic = store.grad(p).clone();

        // Numerical gradients.
        let eps = 1e-3f32;
        let len = store.value(p).len();
        for k in 0..len {
            let orig = store.value(p).data()[k];
            store.value_mut(p).data_mut()[k] = orig + eps;
            let mut t1 = Tape::new();
            let l1 = f(&mut t1, store);
            let lp = t1.value(l1).data()[0];
            store.value_mut(p).data_mut()[k] = orig - eps;
            let mut t2 = Tape::new();
            let l2 = f(&mut t2, store);
            let lm = t2.value(l2).data()[0];
            store.value_mut(p).data_mut()[k] = orig;
            let numeric = (lp - lm) / (2.0 * eps);
            let a = analytic.data()[k];
            assert!(
                (a - numeric).abs() < 2e-2 * (1.0 + a.abs().max(numeric.abs())),
                "param grad mismatch at {k}: analytic {a} vs numeric {numeric}"
            );
        }
    }

    #[test]
    fn grad_check_linear_bce() {
        let mut store = ParamStore::new(1);
        let w = store.tensor("w", 3, 2, Init::Xavier);
        let b = store.tensor("b", 1, 2, Init::Xavier);
        for p in [w, b] {
            grad_check(&mut store, p, |tape, store| {
                let x = tape.constant(Tensor::from_rows(vec![
                    vec![0.5, -1.0, 2.0],
                    vec![1.5, 0.3, -0.7],
                ]));
                let wv = tape.param(store, w);
                let bv = tape.param(store, b);
                let h = tape.matmul(x, wv);
                let h = tape.add_row(h, bv);
                tape.bce_with_logits(h, &[1.0, 0.0, 0.0, 1.0])
            });
        }
    }

    #[test]
    fn grad_check_relu_chain() {
        let mut store = ParamStore::new(2);
        let w = store.tensor("w", 2, 3, Init::Xavier);
        grad_check(&mut store, w, |tape, store| {
            let x = tape.constant(Tensor::from_rows(vec![vec![1.0, -2.0]]));
            let wv = tape.param(store, w);
            let h = tape.matmul(x, wv);
            let h = tape.relu(h);
            let h = tape.scale(h, 1.7);
            let h = tape.relu(h);
            tape.bce_with_logits(h, &[1.0, 0.0, 1.0])
        });
    }

    #[test]
    fn grad_check_softmax_attention() {
        let mut store = ParamStore::new(3);
        let wq = store.tensor("wq", 4, 4, Init::Xavier);
        let wk = store.tensor("wk", 4, 4, Init::Xavier);
        let wv = store.tensor("wv", 4, 4, Init::Xavier);
        let head = store.tensor("head", 4, 1, Init::Xavier);
        for p in [wq, wk, wv, head] {
            grad_check(&mut store, p, |tape, store| {
                let h = tape.constant(Tensor::from_rows(vec![
                    vec![0.1, 0.2, -0.3, 0.4],
                    vec![-0.5, 0.1, 0.9, -0.2],
                    vec![0.3, -0.8, 0.2, 0.6],
                ]));
                let q = {
                    let w = tape.param(store, wq);
                    tape.matmul(h, w)
                };
                let k = {
                    let w = tape.param(store, wk);
                    tape.matmul(h, w)
                };
                let v = {
                    let w = tape.param(store, wv);
                    tape.matmul(h, w)
                };
                let kt = tape.transpose(k);
                let scores = tape.matmul(q, kt);
                let scores = tape.scale(scores, 0.5);
                let att = tape.softmax(scores);
                let ctx = tape.matmul(att, v);
                let pooled = tape.max_pool(ctx);
                let hw = tape.param(store, head);
                let logit = tape.matmul(pooled, hw);
                tape.bce_with_logits(logit, &[1.0])
            });
        }
    }

    #[test]
    fn grad_check_gather_concat_select() {
        let mut store = ParamStore::new(4);
        let emb = store.tensor("emb", 5, 3, Init::Uniform(0.5));
        let head = store.tensor("head", 6, 1, Init::Xavier);
        for p in [emb, head] {
            grad_check(&mut store, p, |tape, store| {
                let rows = tape.gather(store, emb, &[0, 3, 3, 1]);
                let pooled = tape.max_pool(rows);
                let first = tape.gather(store, emb, &[0]);
                let cat = tape.concat_cols(pooled, first);
                let hw = tape.param(store, head);
                let logit = tape.matmul(cat, hw);
                tape.bce_with_logits(logit, &[0.0])
            });
        }
    }

    #[test]
    fn reset_reuses_buffers_and_preserves_results() {
        // The same computation on a fresh tape and on a reset (recycled)
        // tape must agree bit for bit.
        let mut store = ParamStore::new(6);
        let w = store.tensor("w", 3, 2, Init::Xavier);
        let run = |tape: &mut Tape, store: &mut ParamStore| {
            let x = tape.constant(Tensor::from_rows(vec![vec![0.4, -1.2, 0.8]]));
            let wv = tape.param(store, w);
            let h = tape.matmul(x, wv);
            let h = tape.relu(h);
            let loss = tape.bce_with_logits(h, &[1.0, 0.0]);
            tape.backward(loss, store);
            (tape.value(loss).data()[0], store.grad(w).clone())
        };
        let mut fresh = Tape::new();
        let (l_fresh, g_fresh) = run(&mut fresh, &mut store);
        store.zero_grads();
        let mut reused = Tape::new();
        reused.reset(); // no-op on empty
        let (l1, _) = run(&mut reused, &mut store);
        store.zero_grads();
        reused.reset();
        let (l2, g2) = run(&mut reused, &mut store);
        assert_eq!(l_fresh.to_bits(), l1.to_bits());
        assert_eq!(l1.to_bits(), l2.to_bits());
        assert_eq!(g_fresh, g2);
    }

    #[test]
    fn lazy_grads_skip_forward_only_passes() {
        // A forward-only pass allocates no parameter gradients at all.
        let mut store = ParamStore::new(7);
        let w = store.tensor("w", 2, 2, Init::Xavier);
        let mut tape = Tape::new();
        let x = tape.constant(Tensor::from_rows(vec![vec![1.0, 2.0]]));
        let wv = tape.param(&store, w);
        let _h = tape.matmul(x, wv);
        // No backward: the gradient accumulator must not exist.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = store.grad(w);
        }));
        assert!(
            result.is_err(),
            "grad should be unallocated before backward"
        );
    }

    #[test]
    fn active_rows_track_gathered_rows_only() {
        let mut store = ParamStore::new(8);
        let emb = store.tensor("emb", 10, 2, Init::Uniform(0.5));
        let mut tape = Tape::new();
        let rows = tape.gather(&store, emb, &[2, 7, 2]);
        let pooled = tape.max_pool(rows);
        let loss = tape.bce_with_logits(pooled, &[1.0, 0.0]);
        tape.backward(loss, &mut store);
        let (_, _, active) = store.updates_mut().next().unwrap();
        assert!(!active.is_all());
        let mut touched: Vec<u32> = active.rows().to_vec();
        touched.sort_unstable();
        assert_eq!(touched, vec![2, 7]);
    }

    #[test]
    fn bce_known_value() {
        let mut tape = Tape::new();
        let z = tape.constant(Tensor::from_vec(1, 1, vec![0.0]));
        let loss = tape.bce_with_logits(z, &[1.0]);
        // -log(sigmoid(0)) = ln 2
        assert!((tape.value(loss).data()[0] - std::f32::consts::LN_2).abs() < 1e-6);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let mut tape = Tape::new();
        let x = tape.constant(Tensor::from_rows(vec![
            vec![100.0, 100.0, 100.0],
            vec![-50.0, 0.0, 50.0],
        ]));
        let s = tape.softmax(x);
        for r in 0..2 {
            let sum: f32 = tape.value(s).row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-5);
        }
        // Uniform case.
        assert!((tape.value(s).get(0, 0) - 1.0 / 3.0).abs() < 1e-5);
    }

    #[test]
    fn max_pool_takes_column_maxima() {
        let mut tape = Tape::new();
        let x = tape.constant(Tensor::from_rows(vec![
            vec![1.0, 9.0, 3.0],
            vec![7.0, 2.0, 5.0],
        ]));
        let p = tape.max_pool(x);
        assert_eq!(tape.value(p).data(), &[7.0, 9.0, 5.0]);
    }

    #[test]
    fn xavier_init_bounded_and_seeded() {
        let mut s1 = ParamStore::new(9);
        let mut s2 = ParamStore::new(9);
        let p1 = s1.tensor("w", 10, 10, Init::Xavier);
        let p2 = s2.tensor("w", 10, 10, Init::Xavier);
        assert_eq!(s1.value(p1), s2.value(p2));
        let a = (6.0f32 / 20.0).sqrt();
        assert!(s1.value(p1).data().iter().all(|v| v.abs() <= a));
        assert_eq!(s1.num_scalars(), 100);
    }

    #[test]
    fn backward_into_buffer_merge_matches_direct_backward() {
        // backward → store and backward_into → buffer → merge_into must
        // produce bitwise-identical accumulators and active-row sets, for
        // dense params and sparse gathers alike, including when several
        // buffers fold into one store.
        let build = || {
            let mut store = ParamStore::new(17);
            let emb = store.tensor("emb", 12, 3, Init::Uniform(0.4));
            let w = store.tensor("w", 6, 1, Init::Xavier);
            (store, emb, w)
        };
        let passes: [&[usize]; 3] = [&[1, 4, 4, 9], &[0, 9, 2], &[7, 1]];
        let run_pass =
            |tape: &mut Tape, store: &ParamStore, emb: ParamId, w: ParamId, idx: &[usize]| {
                tape.reset();
                let rows = tape.gather(store, emb, idx);
                let pooled = tape.max_pool(rows);
                let first = tape.gather(store, emb, &idx[..1]);
                let cat = tape.concat_cols(pooled, first);
                let wv = tape.param(store, w);
                let logit = tape.matmul(cat, wv);
                tape.bce_with_logits(logit, &[1.0])
            };

        // Reference: every pass accumulates straight into the store.
        let (mut s1, emb1, w1) = build();
        let mut tape = Tape::new();
        for idx in passes {
            let loss = run_pass(&mut tape, &s1, emb1, w1, idx);
            tape.backward(loss, &mut s1);
        }

        // Buffered: one buffer per pass, merged in pass order.
        let (mut s2, emb2, w2) = build();
        let mut bufs: Vec<GradBuffer> = (0..passes.len()).map(|_| GradBuffer::new()).collect();
        for (idx, buf) in passes.iter().zip(&mut bufs) {
            let loss = run_pass(&mut tape, &s2, emb2, w2, idx);
            tape.backward_into(loss, &s2, buf);
        }
        for buf in &bufs {
            buf.merge_into(&mut s2);
        }

        for p in [emb1, w1] {
            assert_eq!(s1.grad(p), s2.grad(p));
        }
        let rows1: Vec<Vec<u32>> = s1.active.iter().map(|a| a.rows.clone()).collect();
        let rows2: Vec<Vec<u32>> = s2.active.iter().map(|a| a.rows.clone()).collect();
        assert_eq!(rows1, rows2, "first-touch row order must be preserved");

        // A cleared, reused buffer behaves like a fresh one.
        let mut reused = GradBuffer::new();
        let (mut s3, emb3, w3) = build();
        for idx in passes {
            let loss = run_pass(&mut tape, &s3, emb3, w3, idx);
            reused.clear();
            tape.backward_into(loss, &s3, &mut reused);
            reused.merge_into(&mut s3);
        }
        for (p1, p3) in [(emb1, emb3), (w1, w3)] {
            assert_eq!(s1.grad(p1), s3.grad(p3));
        }
    }

    #[test]
    fn training_reduces_loss() {
        let mut store = ParamStore::new(11);
        let w = store.tensor("w", 2, 1, Init::Xavier);
        let mut opt = crate::Adam::new(0.1);
        let run = |store: &mut ParamStore| {
            let mut tape = Tape::new();
            let x = tape.constant(Tensor::from_rows(vec![vec![1.0, 0.0], vec![0.0, 1.0]]));
            let wv = tape.param(store, w);
            let z = tape.matmul(x, wv);
            let loss = tape.bce_with_logits(z, &[1.0, 0.0]);
            (tape, loss)
        };
        let (t0, l0) = run(&mut store);
        let initial = t0.value(l0).data()[0];
        for _ in 0..200 {
            store.zero_grads();
            let (mut tape, loss) = run(&mut store);
            tape.backward(loss, &mut store);
            opt.step(&mut store);
        }
        let (t1, l1) = run(&mut store);
        let final_loss = t1.value(l1).data()[0];
        assert!(final_loss < initial * 0.2, "{final_loss} !< {initial}");
    }
}
