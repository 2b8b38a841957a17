//! The tape: nodes, variables, and the backward pass that extends them.

use crate::opk::Mode;
use crate::ops_basic::SCALE_G;
use crate::table::{Attr, Entry, Io, Srcs, State};
use legw_tensor::{Shape, Tensor};

/// A handle to a value on the tape. Cheap to copy; only valid for the
/// [`Graph`] that created it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Var(pub(crate) usize);

/// One tape entry: a shape, a value unless a shape-only tape recorded a
/// kernel's output (or a gradient contribution, which holds none), and
/// what produced it.
pub(crate) struct Node {
    pub shape: Shape,
    pub value: Option<Tensor>,
    pub requires_grad: bool,
    pub op: Op,
}

pub(crate) enum Op {
    /// A graph input, parameter or constant.
    Leaf,
    /// A value written by a later kernel node: an extra output of a
    /// multi-output kernel, or a gradient accumulator.
    Out,
    /// A kernel invocation.
    K(Ins),
}

/// A kernel invocation in the form plan instructions share: the kernel,
/// its sources, its destinations with their [`Mode`], its constants, and
/// the index of its [`State`] in [`Graph::states`]. A forward op's last
/// destination is its own node; a gradient contribution writes only into
/// accumulator nodes and holds no value of its own.
pub(crate) struct Ins {
    pub k: &'static Entry,
    pub src: Vec<Var>,
    pub dst: Vec<(Var, Mode)>,
    pub a: Attr,
    pub st: Option<u32>,
}

impl Ins {
    /// The node this forward op recorded (its last output).
    pub(crate) fn me(&self) -> Var {
        self.dst.last().expect("kernel without an output").0
    }
}

/// Label value marking a position to exclude from the cross-entropy mean
/// (padding in seq2seq batches).
pub const IGNORE_INDEX: usize = usize::MAX;

/// A reverse-mode tape. Create one per forward pass, or keep one around
/// and [`Graph::reset`] it between passes so the node `Vec` allocation is
/// reused (real training tapes run to thousands of nodes).
///
/// [`Graph::new`] runs each op's kernel as it records it. A
/// [`Graph::shape_only`] tape, what a [`crate::Plan`] is captured from,
/// records the same nodes with their shapes and runs no kernel: its leaves
/// keep their values, and a kernel output holds no buffer at all.
pub struct Graph {
    pub(crate) nodes: Vec<Node>,
    /// Leaves recorded via [`Graph::input`], in creation order — the
    /// positional input signature a captured [`crate::Plan`] replays
    /// against.
    pub(crate) inputs: Vec<Var>,
    /// Per-op state, indexed by [`Ins::st`].
    pub(crate) states: Vec<State>,
    /// Each node's gradient accumulator, once backward has reached it.
    pub(crate) grads: Vec<Option<Var>>,
    /// The first backward's root and the index of its first node.
    pub(crate) bwd: Option<(Var, usize)>,
    /// Whether recording runs each kernel.
    eager: bool,
}

/// Initial node capacity: a PTB training tape records a few thousand nodes,
/// so starting at 1024 avoids most of the early regrowth copies.
const INITIAL_NODES: usize = 1024;

impl Default for Graph {
    fn default() -> Self {
        Self::new()
    }
}

impl Graph {
    /// An empty eager tape.
    pub fn new() -> Self {
        Self {
            nodes: Vec::with_capacity(INITIAL_NODES),
            inputs: Vec::new(),
            states: Vec::new(),
            grads: Vec::new(),
            bwd: None,
            eager: true,
        }
    }

    /// An empty shape-only tape: ops record their nodes and shapes and run
    /// no kernel, so [`Graph::value`] panics on anything but a leaf.
    pub fn shape_only() -> Self {
        Self { eager: false, ..Self::new() }
    }

    /// Clears the tape for reuse by the next forward pass, keeping the
    /// node `Vec`'s capacity (values/grads drop here, returning their
    /// buffers to the tensor pool).
    pub fn reset(&mut self) {
        self.nodes.clear();
        self.inputs.clear();
        self.states.clear();
        self.grads.clear();
        self.bwd = None;
    }

    /// Number of recorded nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if no nodes have been recorded.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    fn push(&mut self, shape: Shape, value: Option<Tensor>, requires_grad: bool, op: Op) -> Var {
        self.nodes.push(Node { shape, value, requires_grad, op });
        Var(self.nodes.len() - 1)
    }

    pub(crate) fn requires(&self, v: Var) -> bool {
        self.nodes[v.0].requires_grad
    }

    /// The shape of `v`, on either kind of tape.
    pub fn shape(&self, v: Var) -> Vec<usize> {
        self.nodes[v.0].shape.dims().to_vec()
    }

    pub(crate) fn numel(&self, v: Var) -> usize {
        self.nodes[v.0].shape.numel()
    }

    /// Records a constant input leaf (receives no gradient).
    pub fn input(&mut self, value: Tensor) -> Var {
        let v = self.push(Shape::new(value.shape()), Some(value), false, Op::Leaf);
        self.inputs.push(v);
        v
    }

    /// Every [`Graph::input`] leaf in creation order. A plan captured with
    /// these as [`crate::CaptureSpec::inputs`] replays on fresh tensors
    /// supplied in the same order.
    pub fn input_vars(&self) -> &[Var] {
        &self.inputs
    }

    /// Records a parameter leaf (participates in backward).
    pub fn param(&mut self, value: Tensor) -> Var {
        self.push(Shape::new(value.shape()), Some(value), true, Op::Leaf)
    }

    /// The forward value of `v`; on a shape-only tape, a leaf's only.
    pub fn value(&self, v: Var) -> &Tensor {
        self.nodes[v.0].value.as_ref().expect("a shape-only tape computes no value")
    }

    /// The accumulated gradient of `v`, if backward has reached it.
    pub fn grad(&self, v: Var) -> Option<&Tensor> {
        let g = self.grads.get(v.0).copied().flatten()?;
        Some(self.value(g))
    }

    /// Records kernel `k` over `src` as a forward op with one output per
    /// shape in `outs`, and runs it. The op's node holds the last output;
    /// the others are [`Op::Out`] nodes right before it.
    pub(crate) fn record(
        &mut self,
        k: &'static Entry,
        src: &[Var],
        outs: &[&[usize]],
        a: Attr,
        st: Option<State>,
    ) -> Var {
        let rg = src.iter().any(|&v| self.requires(v));
        let dst = outs
            .iter()
            .map(|s| (self.push(Shape::new(s), None, rg, Op::Out), Mode::Store))
            .collect();
        let st = st.map(|s| {
            self.states.push(s);
            (self.states.len() - 1) as u32
        });
        let ins = Ins { k, src: src.to_vec(), dst, a, st };
        self.eval(&ins);
        let me = ins.me();
        self.nodes[me.0].op = Op::K(ins);
        me
    }

    /// Appends gradient contribution `k` over `src`, its outputs going to
    /// the gradients of `to` in order: the first contribution to a gradient
    /// stores into a new accumulator, later ones add. An output for a
    /// variable that needs no gradient lands in a throwaway accumulator;
    /// nothing is appended if none of `to` needs one. Runs it.
    pub(crate) fn contrib(
        &mut self,
        k: &'static Entry,
        src: &[Var],
        to: &[Var],
        a: Attr,
        st: Option<u32>,
    ) {
        if !to.iter().any(|&v| self.requires(v)) {
            return;
        }
        let mut dst = Vec::with_capacity(to.len());
        for &v in to {
            let rg = self.requires(v);
            dst.push(match self.grads[v.0] {
                Some(acc) if rg => (acc, Mode::Add),
                _ => {
                    let acc = self.push(self.nodes[v.0].shape.clone(), None, false, Op::Out);
                    if rg {
                        self.grads[v.0] = Some(acc);
                    }
                    (acc, Mode::Store)
                }
            });
        }
        let ins = Ins { k, src: src.to_vec(), dst, a, st };
        self.eval(&ins);
        self.push(Shape::scalar(), None, false, Op::K(ins));
    }

    /// Runs one kernel on an eager tape (a shape-only one runs none): its
    /// destinations are node values moved out for the call (a store's is a
    /// fresh pooled buffer, which it overwrites), its sources the values of
    /// other nodes.
    fn eval(&mut self, ins: &Ins) {
        if !self.eager {
            return;
        }
        let n = ins.dst.len();
        let mut outs: [Option<Tensor>; 3] = std::array::from_fn(|j| {
            let node = &mut self.nodes[ins.dst.get(j)?.0 .0];
            Some(node.value.take().unwrap_or_else(|| Tensor::dirty(node.shape.dims())))
        });
        let mode = std::array::from_fn(|j| ins.dst.get(j).map_or(Mode::Store, |d| d.1));
        let lens: [usize; 3] = std::array::from_fn(|j| outs[j].as_ref().map_or(0, Tensor::numel));
        let (f, d) = ins.k.scratch(&mode[..n], &lens[..n]);
        let (mut scratch, mut acc) = ((f > 0).then(|| Tensor::dirty(&[f])), vec![0.0f64; d]);
        let mut it = outs.iter_mut().map(|t| t.as_mut().map_or(&mut [][..], Tensor::as_mut_slice));
        // The op's buffer leaves its state for the call, as the outputs
        // leave their nodes; its forward takes a fresh one.
        let mut buf = ins.st.and_then(|s| {
            let st = &mut self.states[s as usize];
            st.buf.take().or_else(|| (st.buf_len > 0).then(|| Tensor::dirty(&[st.buf_len])))
        });
        (ins.k.run)(&mut Io {
            a: &ins.a,
            src: Srcs::Tape(&self.nodes, &ins.src),
            out: std::array::from_fn(|_| it.next().unwrap_or_default()),
            mode,
            st: ins.st.map(|s| &mut self.states[s as usize]),
            buf: buf.as_mut().map_or(&mut [], Tensor::as_mut_slice),
            scratch: scratch.as_mut().map_or(&mut [], Tensor::as_mut_slice),
            acc: &mut acc,
        });
        if let Some(s) = ins.st {
            self.states[s as usize].buf = buf;
        }
        for (&(v, _), t) in ins.dst.iter().zip(outs.into_iter().flatten()) {
            self.nodes[v.0].value = Some(t);
        }
    }

    /// Differentiates `loss` (which must be a 1-element tensor), seeding
    /// `dLoss/dLoss = 1`.
    ///
    /// # Panics
    /// If `loss` is not scalar-shaped.
    pub fn backward(&mut self, loss: Var) {
        let shape = self.shape(loss);
        assert_eq!(self.numel(loss), 1, "backward() root must be a scalar, got {shape:?}");
        self.backward_seeded(loss, Tensor::ones(&shape));
    }

    /// [`Graph::backward`] with an explicit gradient `seed` for `root`.
    ///
    /// The gradient computation is recorded on this tape, after the forward
    /// it differentiates: visiting the nodes from `root` down, each op's
    /// backward rule appends the kernel nodes that contribute to its
    /// sources' gradients, which accumulate in that order. [`Graph::grad`]
    /// reads the results, and a [`crate::Plan`] compiles the whole tape.
    pub fn backward_seeded(&mut self, root: Var, seed: Tensor) {
        if !self.requires(root) {
            return; // nothing on the tape depends on a parameter
        }
        let start = self.nodes.len();
        self.bwd.get_or_insert((root, start));
        self.grads.resize(start, None);
        let seed = self.push(Shape::new(seed.shape()), Some(seed), false, Op::Leaf);
        match self.grads[root.0] {
            None => self.grads[root.0] = Some(seed),
            Some(_) => self.contrib(&SCALE_G, &[seed], &[root], Attr::s(1.0), None),
        }
        for i in (0..=root.0).rev() {
            let Op::K(ins) = &self.nodes[i].op else { continue };
            let ups: Vec<Option<Var>> = ins.dst.iter().map(|&(v, _)| self.grads[v.0]).collect();
            let Some(rule) = ins.k.grad else { continue };
            if !self.nodes[i].requires_grad || ups.iter().all(Option::is_none) {
                continue;
            }
            let op = std::mem::replace(&mut self.nodes[i].op, Op::Leaf);
            if let Op::K(ins) = &op {
                rule(self, ins, &ups);
            }
            self.nodes[i].op = op;
        }
    }

    /// Collects (var, gradient) pairs for all parameter leaves, in creation
    /// order. Leaves without gradients yield zero tensors.
    pub fn leaf_grads(&self) -> Vec<(Var, Tensor)> {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| matches!(n.op, Op::Leaf) && n.requires_grad)
            .map(|(i, n)| {
                let g = self.grad(Var(i)).cloned();
                (Var(i), g.unwrap_or_else(|| Tensor::zeros(n.shape.dims())))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leaf_bookkeeping() {
        let mut g = Graph::new();
        let a = g.input(Tensor::zeros(&[2]));
        let b = g.param(Tensor::ones(&[2]));
        assert!(!g.requires(a));
        assert!(g.requires(b));
        assert_eq!(g.len(), 2);
        assert!(!g.is_empty());
    }

    #[test]
    fn grad_accumulates_across_uses() {
        let mut g = Graph::new();
        let x = g.param(Tensor::from_vec(vec![2.0], &[1]));
        let y = g.add(x, x); // y = 2x ⇒ dy/dx = 2
        g.backward(y);
        assert_eq!(g.grad(x).unwrap().as_slice(), &[2.0]);
    }

    #[test]
    fn inputs_get_no_grad() {
        let mut g = Graph::new();
        let x = g.input(Tensor::from_vec(vec![2.0], &[1]));
        let w = g.param(Tensor::from_vec(vec![3.0], &[1]));
        let y = g.mul(x, w);
        g.backward(y);
        assert!(g.grad(x).is_none());
        assert_eq!(g.grad(w).unwrap().as_slice(), &[2.0]);
    }

    #[test]
    #[should_panic(expected = "must be a scalar")]
    fn backward_on_non_scalar_panics() {
        let mut g = Graph::new();
        let x = g.param(Tensor::zeros(&[3]));
        g.backward(x);
    }

    #[test]
    fn backward_with_no_params_is_noop() {
        let mut g = Graph::new();
        let x = g.input(Tensor::from_vec(vec![1.0, 2.0], &[2]));
        let s = g.sum_all(x);
        g.backward(s); // must not panic
        assert!(g.grad(s).is_none());
    }

    #[test]
    fn leaf_grads_lists_params_in_order() {
        let mut g = Graph::new();
        let w1 = g.param(Tensor::ones(&[2]));
        let _x = g.input(Tensor::ones(&[2]));
        let w2 = g.param(Tensor::ones(&[2]));
        let s1 = g.sum_all(w1);
        let s2 = g.sum_all(w2);
        let tot = g.add(s1, s2);
        g.backward(tot);
        let lg = g.leaf_grads();
        assert_eq!(lg.len(), 2);
        assert_eq!(lg[0].0, w1);
        assert_eq!(lg[1].0, w2);
        assert_eq!(lg[0].1.as_slice(), &[1.0, 1.0]);
    }
}
